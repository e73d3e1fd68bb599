// Minibatch ADMM: every local sub-problem is solved over one chunk of rows
// per round instead of the learner's whole partition, turning the per-round
// cost from O(partition) into O(chunk) and — together with the streaming
// RowSource — letting a learner train on data that does not fit in memory.
//
// Chunking is a deterministic seeded permutation over contiguous row ranges,
// reshuffled every epoch, so every row is visited exactly once per epoch and
// two runs with the same Config.Seed execute bit-identical chunk schedules.
// The horizontal schemes scale each chunk's slack box to C·(N_m/n_c) so the
// chunk hinge mass is an unbiased stand-in for the partition's, and keep a
// per-chunk dual warm start so revisiting a chunk resumes its solve. The
// vertical schemes run block-coordinate updates on the shared score vector:
// every learner and the Reducer follow the same Seed-derived schedule
// (sharedChunkStream), each round updating only that chunk's coordinates.
// See DESIGN.md §15 for the convergence discussion.
package consensus

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/eval"
	"github.com/ppml-go/ppml/internal/kernel"
	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/mapreduce"
	"github.com/ppml-go/ppml/internal/qp"
	"github.com/ppml-go/ppml/internal/telemetry"
)

// metricChunkSeconds is the per-chunk local-solve latency histogram.
const metricChunkSeconds = "ppml_chunk_seconds"

// sharedChunkStream is the schedule id the vertical schemes use: the rows are
// shared across learners, so mappers and the Reducer must visit the same
// chunk every round, which they do by deriving one common permutation stream.
const sharedChunkStream = -1

// chunkSchedule maps an iteration number to a contiguous row chunk. The
// permutation is a pure function of (seed, id, epoch), so out-of-order
// queries — a stale background solve, a prefetch hint for the next round —
// always agree with in-order ones.
type chunkSchedule struct {
	rows, chunkRows, numChunks int
	seed                       int64
	id                         int

	epoch int // epoch whose permutation is cached
	perm  []int
}

func newChunkSchedule(rows, chunkRows int, seed int64, id int) *chunkSchedule {
	if chunkRows > rows {
		chunkRows = rows
	}
	return &chunkSchedule{
		rows:      rows,
		chunkRows: chunkRows,
		numChunks: numChunksFor(rows, chunkRows),
		seed:      seed,
		id:        id,
		epoch:     -1,
	}
}

// numChunksFor is the chunk count a schedule over rows will use — exposed so
// trainers can size the virtual cohort M′ before building any mapper.
func numChunksFor(rows, chunkRows int) int {
	if chunkRows > rows {
		chunkRows = rows
	}
	return (rows + chunkRows - 1) / chunkRows
}

// chunk returns the chunk index and row range [lo, hi) iteration iter visits.
func (s *chunkSchedule) chunk(iter int) (idx, lo, hi int) {
	epoch, pos := iter/s.numChunks, iter%s.numChunks
	if epoch != s.epoch {
		s.reshuffle(epoch)
	}
	idx = s.perm[pos]
	lo = idx * s.chunkRows
	hi = lo + s.chunkRows
	if hi > s.rows {
		hi = s.rows
	}
	return idx, lo, hi
}

func (s *chunkSchedule) reshuffle(epoch int) {
	mixed := uint64(s.seed) ^ (uint64(epoch)+1)*0x9e3779b97f4a7c15 ^ uint64(int64(s.id)+101)*0x2545f4914f6cdd1d
	//ppml:deterministic-ok the chunk visit order is protocol-public scheduling metadata: it must be bit-identical across runs (reproducible benchmarks) and, for the vertical schemes, identical across every learner and the Reducer, all of which derive it from the shared Config.Seed
	rng := rand.New(rand.NewSource(int64(mixed)))
	if s.perm == nil {
		s.perm = make([]int, s.numChunks)
	}
	for i := range s.perm {
		s.perm[i] = i
	}
	rng.Shuffle(len(s.perm), func(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] })
	s.epoch = epoch
}

// rowView is a zero-copy view of rows [lo, hi) of m. Valid as long as m is.
func rowView(m *linalg.Matrix, lo, hi int) *linalg.Matrix {
	return &linalg.Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// hlChunkMapper is the minibatch horizontal-linear Map() task. It reads row
// chunks through a double-buffered Prefetcher — the one code path serving
// both in-memory partitions (memorySource) and dfs-streamed ones — and per
// round solves the HL dual restricted to one chunk of rows.
//
// Every chunk is a full virtual learner of the consensus: across the cohort
// there are M′ = Σ_m J_m of them (J_m chunks on learner m), each owning its
// rows outright — box [0, C], η and ρM factors computed with M′ — with its
// own consensus duals (γ_c, β_c) and dual warm start. Per round the mapper
// refreshes exactly one virtual learner and contributes the running mean of
// all its chunks' terms (w_c + γ_c), so the Reducer's cohort mean equals the
// M′-learner consensus z-update with J_m−1 stale summands per learner — an
// incremental ADMM whose iterates settle onto the full-batch fixed point
// instead of orbiting it in a noise ball.
type hlChunkMapper struct {
	m    int // virtual cohort size M′ (not the number of real learners)
	cfg  Config
	eta  float64 // M′/(1+ρM′)
	n, k int

	pf    *dataset.Prefetcher
	sched *chunkSchedule

	gamma [][]float64 // per-chunk scaled dual for w = z
	beta  []float64   // per-chunk scaled dual for b = s
	prevW [][]float64 // per-chunk last local w
	prevB []float64
	haveW []bool

	lambda [][]float64 // per-chunk dual warm starts, persisted across epochs

	// Running aggregate over the chunks' contribution terms: term[c] is the
	// last (w_c+γ_c, b_c+β_c) chunk c reported, sum their elementwise total
	// over the visited chunks. The round's contribution is sum/visited.
	term    [][]float64
	sum     []float64
	visited int

	// Round scratch sized to the largest chunk; q is reshaped in place by the
	// dst-reuse contract, so steady-state rounds only allocate inside the
	// per-round qp solve when a chunk's warm start is first created.
	q         *linalg.Matrix
	u, p, yl  []float64
	qpScratch qp.Scratch
	opts      []qp.Option
	warmIdx   int
	chunkDur  *telemetry.Histogram

	lastIter int
	cached   []float64
}

// newHLChunkMapper builds the Map() task for learner id. mprime is the
// virtual cohort size M′ = Σ_m J_m, shared by every mapper so their η agree.
func newHLChunkMapper(src dataset.RowSource, id, mprime int, cfg Config) (*hlChunkMapper, error) {
	n, k := src.Rows(), src.Features()
	if n == 0 || k == 0 {
		return nil, fmt.Errorf("%w: learner %d has no data", ErrBadPartition, id)
	}
	sched := newChunkSchedule(n, cfg.ChunkRows, cfg.Seed, id)
	pf, err := dataset.NewPrefetcher(src, sched.chunkRows, cfg.Telemetry)
	if err != nil {
		return nil, err
	}
	maxC := sched.chunkRows
	mp := &hlChunkMapper{
		m: mprime, cfg: cfg, eta: float64(mprime) / (1 + cfg.Rho*float64(mprime)),
		n: n, k: k,
		pf: pf, sched: sched,
		gamma:    make([][]float64, sched.numChunks),
		beta:     make([]float64, sched.numChunks),
		prevW:    make([][]float64, sched.numChunks),
		prevB:    make([]float64, sched.numChunks),
		haveW:    make([]bool, sched.numChunks),
		lambda:   make([][]float64, sched.numChunks),
		term:     make([][]float64, sched.numChunks),
		sum:      make([]float64, k+1),
		q:        linalg.NewMatrix(maxC, maxC),
		u:        make([]float64, k),
		p:        make([]float64, maxC),
		yl:       make([]float64, maxC),
		chunkDur: cfg.Telemetry.Histogram(metricChunkSeconds, telemetry.DurationBuckets),
		lastIter: -1,
	}
	mp.opts = []qp.Option{
		qp.WithTolerance(cfg.QPTol),
		qp.WithTelemetry(cfg.Telemetry),
		qp.WithScratch(&mp.qpScratch),
		qp.WithWarmStart(nil), // replaced per round with the chunk's dual
	}
	mp.warmIdx = len(mp.opts) - 1
	return mp, nil
}

// close stops the mapper's background prefetch reader.
func (mp *hlChunkMapper) close() { mp.pf.Close() }

// Contribution implements mapreduce.IterativeMapper: one chunk ADMM sub-step.
func (mp *hlChunkMapper) Contribution(iter int, state []float64) ([]float64, error) {
	if iter == mp.lastIter && mp.cached != nil {
		return mp.cached, nil // idempotent under task retry
	}
	start := time.Now()
	idx, lo, hi := mp.sched.chunk(iter)
	ch, err := mp.pf.Fetch(idx)
	if err != nil {
		return nil, fmt.Errorf("consensus hl chunk [%d,%d): %w", lo, hi, err)
	}
	// The schedule is deterministic, so the next round's chunk is known now;
	// decoding it overlaps with this round's solve.
	nidx, _, _ := mp.sched.chunk(iter + 1)
	mp.pf.Prefetch(nidx)
	nc := hi - lo
	for i, yv := range ch.Y {
		// Streamed rows cannot be validated up front; reject bad labels at
		// first use without echoing the value (it is a training-data datum).
		if yv != 1 && yv != -1 {
			return nil, fmt.Errorf("%w: row %d label is not ±1", ErrBadPartition, lo+i)
		}
	}

	z := state[:mp.k]
	sb := state[mp.k]
	gamma := mp.gamma[idx]
	if gamma == nil {
		gamma = make([]float64, mp.k)
		mp.gamma[idx] = gamma
		mp.prevW[idx] = make([]float64, mp.k)
	}
	prevW := mp.prevW[idx]
	if mp.haveW[idx] {
		for j := range gamma {
			gamma[j] += prevW[j] - z[j]
		}
		mp.beta[idx] += mp.prevB[idx] - sb
	}
	u := linalg.SubVec(z, gamma, mp.u)
	t := sb - mp.beta[idx]

	// Chunk dual Hessian and linear term: the full-batch joint-update
	// formulas with the chunk as the virtual learner's whole partition —
	// box [0, C], η computed with the virtual cohort size M′.
	q, err := linalg.MatMulTInto(ch.X, ch.X, mp.q)
	if err != nil {
		return nil, err
	}
	mp.q = q
	for i := 0; i < nc; i++ {
		row := q.Row(i)
		for j := range row {
			row[j] = mp.eta*ch.Y[i]*ch.Y[j]*row[j] + ch.Y[i]*ch.Y[j]/mp.cfg.Rho
		}
	}
	p := mp.p[:nc]
	for i := 0; i < nc; i++ {
		p[i] = mp.eta*mp.cfg.Rho*ch.Y[i]*linalg.Dot(ch.X.Row(i), u) + t*ch.Y[i] - 1
	}

	lam := mp.lambda[idx]
	if lam == nil {
		lam = make([]float64, nc)
		mp.lambda[idx] = lam
	}
	mp.opts[mp.warmIdx] = qp.WithWarmStart(lam)
	res, err := qp.SolveBox(qp.Problem{Q: q, P: p, C: mp.cfg.C}, mp.opts...)
	if err != nil {
		return nil, fmt.Errorf("consensus hl chunk solve: %w", err)
	}
	// res.Lambda aliases the qp scratch; persist it as this chunk's warm
	// start before the next solve zeroes the scratch.
	copy(lam, res.Lambda)

	// Primal recovery, identical to the full-batch mapper's formulas.
	yl := mp.yl[:nc]
	sumYL := 0.0
	for i := range yl {
		yl[i] = ch.Y[i] * res.Lambda[i]
		sumYL += yl[i]
	}
	w, err := ch.X.MulVecT(yl, prevW)
	if err != nil {
		return nil, err
	}
	for j := range w {
		w[j] = mp.eta * (w[j] + mp.cfg.Rho*u[j])
	}
	b := t + sumYL/mp.cfg.Rho

	mp.prevW[idx], mp.prevB[idx], mp.haveW[idx] = w, b, true

	// Swap this chunk's refreshed term into the running aggregate; the
	// contribution is the mean over the chunks visited so far, so each round
	// moves the cohort sum by exactly one virtual learner's update.
	term := mp.term[idx]
	if term == nil {
		term = make([]float64, mp.k+1)
		mp.term[idx] = term
		mp.visited++
	} else {
		for j, v := range term {
			mp.sum[j] -= v
		}
	}
	for j := range w {
		term[j] = w[j] + gamma[j]
	}
	term[mp.k] = b + mp.beta[idx]
	for j, v := range term {
		mp.sum[j] += v
	}

	if mp.cached == nil {
		mp.cached = make([]float64, mp.k+1)
	}
	contrib := mp.cached
	inv := 1 / float64(mp.visited)
	for j, v := range mp.sum {
		contrib[j] = v * inv
	}
	mp.lastIter = iter
	mp.chunkDur.Observe(time.Since(start).Seconds())
	return contrib, nil
}

// hkChunkMapper is the minibatch horizontal-kernel Map() task: the hlChunk
// structure lifted to the reduced landmark space, with the same virtual-
// learner cohort (m and every ρM factor use M′; see hlChunkMapper). The
// chunk's kernel blocks (K_cc, K_cg slices and the P-folded matrices built
// from them) are computed per round into reused buffers; GPGᵀ is data-
// independent and shared.
type hkChunkMapper struct {
	m, l int // m is the virtual cohort size M′
	cfg  Config
	rhoM float64 // ρM′

	x *linalg.Matrix
	y []float64

	kmg     *linalg.Matrix // K(X_m, X_g), full partition; chunk rows are views
	kgg     *linalg.Matrix
	kgInv   *linalg.Matrix
	gpg     *linalg.Matrix // GPGᵀ, shared across learners and chunks
	kgInvKm *linalg.Matrix // K⁻¹_g·K_gm, for the final expansion

	sched *chunkSchedule

	// Per-chunk virtual-learner ADMM state (see hlChunkMapper).
	r      [][]float64 // per-chunk scaled dual for Gw = z
	beta   []float64
	prevGw [][]float64
	prevB  []float64
	haveW  []bool

	lambda     [][]float64 // per-chunk dual warm starts
	lambdaFull []float64   // stitched duals feeding the final expansion

	// Running aggregate over the chunks' terms (see hlChunkMapper).
	term    [][]float64
	sum     []float64
	visited int

	// Round scratch sized to the largest chunk (dst-reuse contract).
	kmm, a1, corr, a1kgg, phiPG, q *linalg.Matrix
	u, pg, p, yl, gu               []float64
	qpScratch                      qp.Scratch
	opts                           []qp.Option
	warmIdx                        int
	chunkDur                       *telemetry.Histogram

	lastIter int
	cached   []float64
}

// newHKChunkMapper builds learner id's Map() task. mprime is the virtual
// cohort size M′; kgInv and gpg must have been built with the same M′.
func newHKChunkMapper(p *dataset.Dataset, id, mprime int, cfg Config, xg, kgg, kgInv, gpg *linalg.Matrix) (*hkChunkMapper, error) {
	kmg, err := kernel.Matrix(cfg.Kernel, p.X, xg)
	if err != nil {
		return nil, err
	}
	kgInvKm, err := linalg.MatMulT(kgInv, kmg)
	if err != nil {
		return nil, err
	}
	sched := newChunkSchedule(p.Len(), cfg.ChunkRows, cfg.Seed, id)
	maxC := sched.chunkRows
	l := xg.Rows
	mp := &hkChunkMapper{
		m: mprime, l: l, cfg: cfg, rhoM: cfg.Rho * float64(mprime),
		x: p.X, y: p.Y,
		kmg: kmg, kgg: kgg, kgInv: kgInv, gpg: gpg, kgInvKm: kgInvKm,
		sched:      sched,
		r:          make([][]float64, sched.numChunks),
		beta:       make([]float64, sched.numChunks),
		prevGw:     make([][]float64, sched.numChunks),
		prevB:      make([]float64, sched.numChunks),
		haveW:      make([]bool, sched.numChunks),
		lambda:     make([][]float64, sched.numChunks),
		lambdaFull: make([]float64, p.Len()),
		term:       make([][]float64, sched.numChunks),
		sum:        make([]float64, l+1),
		kmm:        linalg.NewMatrix(maxC, maxC),
		a1:         linalg.NewMatrix(maxC, l),
		corr:       linalg.NewMatrix(maxC, maxC),
		a1kgg:      linalg.NewMatrix(maxC, l),
		phiPG:      linalg.NewMatrix(maxC, l),
		q:          linalg.NewMatrix(maxC, maxC),
		u:          make([]float64, l),
		pg:         make([]float64, maxC),
		p:          make([]float64, maxC),
		yl:         make([]float64, maxC),
		gu:         make([]float64, l),
		chunkDur:   cfg.Telemetry.Histogram(metricChunkSeconds, telemetry.DurationBuckets),
		lastIter:   -1,
	}
	mp.opts = []qp.Option{
		qp.WithTolerance(cfg.QPTol),
		qp.WithTelemetry(cfg.Telemetry),
		qp.WithScratch(&mp.qpScratch),
		qp.WithWarmStart(nil),
	}
	mp.warmIdx = len(mp.opts) - 1
	return mp, nil
}

func (mp *hkChunkMapper) support() *linalg.Matrix { return mp.x }

// Contribution implements mapreduce.IterativeMapper.
func (mp *hkChunkMapper) Contribution(iter int, state []float64) ([]float64, error) {
	if iter == mp.lastIter && mp.cached != nil {
		return mp.cached, nil
	}
	start := time.Now()
	idx, lo, hi := mp.sched.chunk(iter)
	nc := hi - lo
	xc := rowView(mp.x, lo, hi)
	kmgC := rowView(mp.kmg, lo, hi)
	yc := mp.y[lo:hi]

	z := state[:mp.l]
	sb := state[mp.l]
	r := mp.r[idx]
	if r == nil {
		r = make([]float64, mp.l)
		mp.r[idx] = r
		mp.prevGw[idx] = make([]float64, mp.l)
	}
	prevGw := mp.prevGw[idx]
	if mp.haveW[idx] {
		for j := range r {
			r[j] += prevGw[j] - z[j]
		}
		mp.beta[idx] += mp.prevB[idx] - sb
	}
	u := linalg.SubVec(z, r, mp.u)
	t := sb - mp.beta[idx]

	// Chunk restrictions of the P-folded matrices (the full-batch formulas
	// with Φ cut down to the chunk's rows): ΦPΦᵀ|_c and ΦPGᵀ|_c.
	kmm, err := kernel.MatrixInto(mp.cfg.Kernel, xc, xc, mp.kmm)
	if err != nil {
		return nil, err
	}
	mp.kmm = kmm
	a1, err := linalg.MatMulInto(kmgC, mp.kgInv, mp.a1)
	if err != nil {
		return nil, err
	}
	mp.a1 = a1
	corr, err := linalg.MatMulTInto(a1, kmgC, mp.corr)
	if err != nil {
		return nil, err
	}
	mp.corr = corr
	a1kgg, err := linalg.MatMulInto(a1, mp.kgg, mp.a1kgg)
	if err != nil {
		return nil, err
	}
	mp.a1kgg = a1kgg
	phiPG, err := linalg.ReuseMatrix(mp.phiPG, "hk chunk", nc, mp.l)
	if err != nil {
		return nil, err
	}
	mp.phiPG = phiPG
	mf := float64(mp.m)
	for i := range phiPG.Data {
		phiPG.Data[i] = mf * (kmgC.Data[i] - mp.rhoM*a1kgg.Data[i])
	}
	q, err := linalg.ReuseMatrix(mp.q, "hk chunk", nc, nc)
	if err != nil {
		return nil, err
	}
	mp.q = q
	for i := 0; i < nc; i++ {
		qrow, krow, crow := q.Row(i), kmm.Row(i), corr.Row(i)
		for j := range qrow {
			phiP := mf * (krow[j] - mp.rhoM*crow[j])
			qrow[j] = yc[i]*yc[j]*phiP + yc[i]*yc[j]/mp.cfg.Rho
		}
	}
	q.SymmetrizeUpper()

	pg, err := phiPG.MulVec(u, mp.pg[:nc])
	if err != nil {
		return nil, err
	}
	p := mp.p[:nc]
	for i := 0; i < nc; i++ {
		p[i] = mp.cfg.Rho*yc[i]*pg[i] + t*yc[i] - 1
	}

	lam := mp.lambda[idx]
	if lam == nil {
		lam = make([]float64, nc)
		mp.lambda[idx] = lam
	}
	mp.opts[mp.warmIdx] = qp.WithWarmStart(lam)
	res, err := qp.SolveBox(qp.Problem{Q: q, P: p, C: mp.cfg.C}, mp.opts...)
	if err != nil {
		return nil, fmt.Errorf("consensus hk chunk solve: %w", err)
	}
	copy(lam, res.Lambda)
	copy(mp.lambdaFull[lo:hi], res.Lambda)

	yl := mp.yl[:nc]
	sumYL := 0.0
	for i := range yl {
		yl[i] = yc[i] * res.Lambda[i]
		sumYL += yl[i]
	}
	gw, err := phiPG.MulVecT(yl, prevGw)
	if err != nil {
		return nil, err
	}
	gu, err := mp.gpg.MulVec(u, mp.gu)
	if err != nil {
		return nil, err
	}
	linalg.Axpy(mp.cfg.Rho, gu, gw)
	b := t + sumYL/mp.cfg.Rho

	mp.prevGw[idx], mp.prevB[idx], mp.haveW[idx] = gw, b, true

	term := mp.term[idx]
	if term == nil {
		term = make([]float64, mp.l+1)
		mp.term[idx] = term
		mp.visited++
	} else {
		for j, v := range term {
			mp.sum[j] -= v
		}
	}
	for j := range gw {
		term[j] = gw[j] + r[j]
	}
	term[mp.l] = b + mp.beta[idx]
	for j, v := range term {
		mp.sum[j] += v
	}

	if mp.cached == nil {
		mp.cached = make([]float64, mp.l+1)
	}
	contrib := mp.cached
	inv := 1 / float64(mp.visited)
	for j, v := range mp.sum {
		contrib[j] = v * inv
	}
	mp.lastIter = iter
	mp.chunkDur.Observe(time.Since(start).Seconds())
	return contrib, nil
}

// expansion mirrors hkMapper.expansion over the stitched per-chunk duals.
// The learner-level dual is the mean of the per-chunk virtual-learner duals
// (at the fixed point every chunk holds Gw_c = z and the chunk duals play the
// role the single dual plays full-batch); b likewise folds the chunk biases.
func (mp *hkChunkMapper) expansion(z []float64) (coefX, coefG []float64, b float64, err error) {
	n := mp.x.Rows
	ylambda := make([]float64, n)
	coefX = make([]float64, n)
	for i := range ylambda {
		ylambda[i] = mp.y[i] * mp.lambdaFull[i]
		coefX[i] = float64(mp.m) * ylambda[i]
	}
	rbar := make([]float64, mp.l)
	visited := 0
	for idx, r := range mp.r {
		if r == nil || !mp.haveW[idx] {
			continue
		}
		visited++
		linalg.Axpy(1, r, rbar)
		b += mp.prevB[idx]
	}
	if visited > 0 {
		linalg.Scale(1/float64(visited), rbar)
		b /= float64(visited)
	}
	coefG, err = landmarkCoefficients(mp.kgInvKm, mp.kgg, mp.kgInv, ylambda, linalg.SubVec(z, rbar, nil), mp.cfg.Rho, mp.m)
	if err != nil {
		return nil, nil, 0, err
	}
	return coefX, coefG, b, nil
}

// vlChunkMapper is the minibatch vertical-linear Map() task: a block-
// coordinate ridge fit. Each round it refits its whole weight block to the
// chunk's rows only — the ridge matrix I + ρs·X_cᵀX_c is k_m×k_m, factored
// per round — and contributes the refreshed scores on the chunk coordinates,
// zero elsewhere, so the Reducer's chunk fold sees exactly the coordinates
// every learner updated.
type vlChunkMapper struct {
	cfg   Config
	x     *linalg.Matrix
	sched *chunkSchedule

	w []float64 // current block weights

	// Round scratch (largest chunk / k_m sized).
	gram, a    *linalg.Matrix
	xw, q, xtq []float64
	chunkDur   *telemetry.Histogram

	lastIter int
	cached   []float64
}

func newVLChunkMapper(p *dataset.Dataset, cfg Config) (*vlChunkMapper, error) {
	k := p.Features()
	sched := newChunkSchedule(p.Len(), cfg.ChunkRows, cfg.Seed, sharedChunkStream)
	maxC := sched.chunkRows
	return &vlChunkMapper{
		cfg:      cfg,
		x:        p.X,
		sched:    sched,
		w:        make([]float64, k),
		gram:     linalg.NewMatrix(k, k),
		a:        linalg.NewMatrix(k, k),
		xw:       make([]float64, maxC),
		q:        make([]float64, maxC),
		xtq:      make([]float64, k),
		chunkDur: cfg.Telemetry.Histogram(metricChunkSeconds, telemetry.DurationBuckets),
		lastIter: -1,
	}, nil
}

// Contribution implements mapreduce.IterativeMapper: the w_m-update of the
// sharing ADMM restricted to the round's chunk, w = ρs(I + ρs·X_cᵀX_c)⁻¹X_cᵀq_c
// with q_c = X_c·w_prev + state|_c and s = N/n_c weighting the chunk rows to
// stand in for the full record set.
func (mp *vlChunkMapper) Contribution(iter int, state []float64) ([]float64, error) {
	if iter == mp.lastIter && mp.cached != nil {
		return mp.cached, nil
	}
	if len(state) != mp.x.Rows {
		return nil, fmt.Errorf("%w: state of %d values for %d records", ErrBadPartition, len(state), mp.x.Rows)
	}
	start := time.Now()
	_, lo, hi := mp.sched.chunk(iter)
	nc := hi - lo
	s := float64(mp.x.Rows) / float64(nc)
	xc := rowView(mp.x, lo, hi)
	k := mp.x.Cols

	xw, err := xc.MulVec(mp.w, mp.xw[:nc])
	if err != nil {
		return nil, err
	}
	q := mp.q[:nc]
	for i := 0; i < nc; i++ {
		q[i] = xw[i] + state[lo+i]
	}

	// Chunk gram X_cᵀX_c, accumulated row-by-row into the reused k×k buffer.
	gram := mp.gram.Data
	for i := range gram {
		gram[i] = 0
	}
	for i := 0; i < nc; i++ {
		row := xc.Row(i)
		for j, vj := range row {
			g := gram[j*k:]
			for l, vl := range row {
				g[l] += vj * vl
			}
		}
	}
	copy(mp.a.Data, gram)
	mp.a.Scale(mp.cfg.Rho * s)
	if err := mp.a.AddScaledIdentity(1); err != nil {
		return nil, err
	}
	ch, err := linalg.FactorizeCholesky(mp.a)
	if err != nil {
		return nil, fmt.Errorf("consensus vl chunk ridge not SPD: %w", err)
	}
	xtq, err := xc.MulVecT(q, mp.xtq)
	if err != nil {
		return nil, err
	}
	w, err := ch.SolveVec(xtq, mp.w)
	if err != nil {
		return nil, err
	}
	linalg.Scale(mp.cfg.Rho*s, w)
	mp.w = w

	if mp.cached == nil {
		mp.cached = make([]float64, mp.x.Rows)
	}
	contrib := mp.cached
	for i := range contrib {
		contrib[i] = 0
	}
	xwNew, err := xc.MulVec(w, mp.xw[:nc])
	if err != nil {
		return nil, err
	}
	copy(contrib[lo:hi], xwNew)
	mp.lastIter = iter
	mp.chunkDur.Observe(time.Since(start).Seconds())
	return contrib, nil
}

func (mp *vlChunkMapper) blockWeights() []float64 { return mp.w }

// vkChunkMapper is the minibatch vertical-kernel Map() task. Only the
// chunk's expansion coefficients α_c change per round, so the mapper keeps
// the full score vector K·α exact by rank-n_c updates through the round's
// kernel block K(X_c, X) — an n_c×N strip computed into a reused buffer —
// instead of ever materializing (or multiplying by) the full N×N Gram.
type vkChunkMapper struct {
	cfg   Config
	x     *linalg.Matrix
	sched *chunkSchedule

	alpha []float64 // expansion coefficients over all N rows
	kw    []float64 // K·α, maintained exactly across chunk updates

	// Round scratch (largest chunk sized).
	kcb      *linalg.Matrix // K(X_c, X), n_c × N
	kcc      *linalg.Matrix // K(X_c, X_c)
	q, anew  []float64
	chunkDur *telemetry.Histogram

	lastIter int
	cached   []float64
}

func newVKChunkMapper(p *dataset.Dataset, cfg Config) (*vkChunkMapper, error) {
	n := p.Len()
	sched := newChunkSchedule(n, cfg.ChunkRows, cfg.Seed, sharedChunkStream)
	maxC := sched.chunkRows
	return &vkChunkMapper{
		cfg:      cfg,
		x:        p.X,
		sched:    sched,
		alpha:    make([]float64, n),
		kw:       make([]float64, n),
		kcb:      linalg.NewMatrix(maxC, n),
		kcc:      linalg.NewMatrix(maxC, maxC),
		q:        make([]float64, maxC),
		anew:     make([]float64, maxC),
		chunkDur: cfg.Telemetry.Histogram(metricChunkSeconds, telemetry.DurationBuckets),
		lastIter: -1,
	}, nil
}

// Contribution implements mapreduce.IterativeMapper: the kernelized chunk
// update α_c = ρs(I + ρs·K_cc)⁻¹q_c with q_c = (K·α)|_c + state|_c, followed
// by the exact score maintenance K·α += K(X_c,·)ᵀ·Δα_c.
func (mp *vkChunkMapper) Contribution(iter int, state []float64) ([]float64, error) {
	if iter == mp.lastIter && mp.cached != nil {
		return mp.cached, nil
	}
	n := mp.x.Rows
	if len(state) != n {
		return nil, fmt.Errorf("%w: state of %d values for %d records", ErrBadPartition, len(state), n)
	}
	start := time.Now()
	_, lo, hi := mp.sched.chunk(iter)
	nc := hi - lo
	s := float64(n) / float64(nc)
	xc := rowView(mp.x, lo, hi)

	kcb, err := kernel.MatrixInto(mp.cfg.Kernel, xc, mp.x, mp.kcb)
	if err != nil {
		return nil, err
	}
	mp.kcb = kcb
	kcc, err := linalg.ReuseMatrix(mp.kcc, "vk chunk", nc, nc)
	if err != nil {
		return nil, err
	}
	mp.kcc = kcc
	for i := 0; i < nc; i++ {
		copy(kcc.Row(i), kcb.Row(i)[lo:hi])
	}
	kcc.Scale(mp.cfg.Rho * s)
	if err := kcc.AddScaledIdentity(1); err != nil {
		return nil, err
	}
	ch, err := linalg.FactorizeCholesky(kcc)
	if err != nil {
		return nil, fmt.Errorf("consensus vk chunk (I + ρsK_cc) not SPD: %w", err)
	}

	q := mp.q[:nc]
	for i := 0; i < nc; i++ {
		q[i] = mp.kw[lo+i] + state[lo+i]
	}
	anew, err := ch.SolveVec(q, mp.anew[:nc])
	if err != nil {
		return nil, err
	}
	linalg.Scale(mp.cfg.Rho*s, anew)
	for i := 0; i < nc; i++ {
		d := anew[i] - mp.alpha[lo+i]
		mp.alpha[lo+i] = anew[i]
		if d != 0 {
			linalg.Axpy(d, kcb.Row(i), mp.kw)
		}
	}

	if mp.cached == nil {
		mp.cached = make([]float64, n)
	}
	contrib := mp.cached
	for i := range contrib {
		contrib[i] = 0
	}
	copy(contrib[lo:hi], mp.kw[lo:hi])
	mp.lastIter = iter
	mp.chunkDur.Observe(time.Since(start).Seconds())
	return contrib, nil
}

func (mp *vkChunkMapper) support() *linalg.Matrix { return mp.x }
func (mp *vkChunkMapper) coefficients() []float64 { return mp.alpha }

// combineChunk is verticalReducer.Combine in minibatch mode: fold and prox-
// update only the round's chunk coordinates, derived from the same shared
// schedule the mappers follow. Non-chunk coordinates of ā, z̄ and u keep
// their last folded values, so the full broadcast z̄ − ā − u stays consistent
// at every coordinate. The residual is scaled by N/n_c so Tol retains its
// full-batch meaning.
func (r *verticalReducer) combineChunk(iter int, sum []float64, mf float64) ([]float64, bool, error) {
	n := len(r.y)
	_, lo, hi := r.sched.chunk(iter)
	nc := hi - lo
	s := float64(n) / float64(nc)
	if r.abarFull == nil {
		r.abarFull = make([]float64, n)
	}
	for i := lo; i < hi; i++ {
		r.abarFull[i] = sum[i] / mf
	}
	d := r.d[:nc]
	p := r.p[:nc]
	for i := 0; i < nc; i++ {
		d[i] = r.u[lo+i] + r.abarFull[lo+i]
		p[i] = mf*r.y[lo+i]*d[i] - 1
	}
	res, err := qp.SolveUniformDiagEqualityBox(mf/r.cfg.Rho, p, r.cfg.C, r.y[lo:hi], 0, r.qpOpts...)
	if err != nil {
		return nil, false, fmt.Errorf("consensus vertical chunk reducer solve: %w", err)
	}

	if r.prevZeta == nil {
		r.prevZeta = make([]float64, n)
	}
	var delta float64
	for i := 0; i < nc; i++ {
		zi := mf*d[i] + mf/r.cfg.Rho*r.y[lo+i]*res.Lambda[i]
		dz := zi - r.prevZeta[lo+i]
		delta += dz * dz
		r.prevZeta[lo+i] = zi
		r.zbar[lo+i] = zi / mf
		r.u[lo+i] += r.abarFull[lo+i] - r.zbar[lo+i]
	}
	delta *= s
	r.b = biasFromScores(r.prevZeta[lo:hi], r.y[lo:hi], res.Lambda, r.cfg.C)

	r.deltaZSq = append(r.deltaZSq, delta)
	//ppml:flow-ok the consensus residual ‖z−z′‖² is the public stopping statistic every learner computes from the shared iterate
	r.tel.deltaZSq.Set(delta)
	r.tel.journalRound(iter, delta)
	if r.eval != nil {
		acc, err := r.eval(r.b)
		if err != nil {
			return nil, false, fmt.Errorf("consensus: eval-set accuracy after round %d: %w", iter, err)
		}
		r.accuracy = append(r.accuracy, acc)
		//ppml:flow-ok held-out accuracy is the published evaluation metric — an aggregate over the model, not a training row
		r.tel.accuracy.Set(acc)
	}

	next := r.next
	for i := range next {
		next[i] = r.zbar[i] - r.abarFull[i] - r.u[i]
	}
	done := r.cfg.Tol > 0 && delta < r.cfg.Tol
	return next, done, nil
}

// trainHLChunked is the shared engine behind the minibatch and streamed
// horizontal-linear trainers. parts is non-nil only for in-memory training
// (it feeds the optional HDFS locality plan); the streamed path passes nil.
func trainHLChunked(ctx context.Context, srcs []dataset.RowSource, parts []*dataset.Dataset, cfg Config) (*LinearModel, *History, error) {
	m := len(srcs)
	k := srcs[0].Features()
	// Virtual cohort size M′ = Σ_m J_m: every chunk across every learner is
	// one consensus block, and all mappers must agree on η(M′).
	mprime := 0
	for _, src := range srcs {
		mprime += numChunksFor(src.Rows(), cfg.ChunkRows)
	}
	mappers := make([]mapreduce.IterativeMapper, m)
	chunkMappers := make([]*hlChunkMapper, m)
	for i, src := range srcs {
		mp, err := newHLChunkMapper(src, i, mprime, cfg)
		if err != nil {
			for _, prev := range chunkMappers[:i] {
				prev.close()
			}
			return nil, nil, fmt.Errorf("learner %d: %w", i, err)
		}
		mappers[i] = mp
		chunkMappers[i] = mp
	}
	defer func() {
		for _, mp := range chunkMappers {
			mp.close()
		}
	}()
	red := &meanConsensusReducer{
		m:        m,
		tol:      cfg.Tol,
		tel:      newReducerGauges(cfg.Telemetry, "hl"),
		deltaZSq: make([]float64, 0, cfg.MaxIterations),
		accuracy: make([]float64, 0, cfg.MaxIterations),
	}
	if cfg.EvalSet != nil {
		red.eval = func(state []float64) (float64, error) {
			model := LinearModel{W: state[:k], B: state[k]}
			return eval.ClassifierAccuracy(&model, cfg.EvalSet)
		}
	}
	job := mapreduce.IterativeJob{
		Mappers:         mappers,
		Reducer:         red,
		InitialState:    make([]float64, k+1),
		ContributionDim: k + 1,
		MaxIterations:   cfg.MaxIterations,
	}
	res, h, err := runJob(ctx, cfg, job, parts)
	if err != nil {
		return nil, nil, err
	}
	h.DeltaZSq = red.deltaZSq
	h.Accuracy = red.accuracy
	model := &LinearModel{W: linalg.CopyVec(res.FinalState[:k]), B: res.FinalState[k]}
	return model, h, nil
}

// TrainHorizontalLinearStreamed is TrainHorizontalLinear over out-of-core
// partitions: each learner reads its rows on demand through a RowSource
// (typically dataset.OpenDFS over a row-format file in the simulated HDFS)
// with a double-buffered prefetch, so the per-mapper working set is two chunk
// buffers regardless of partition size. Requires Config.ChunkRows > 0.
func TrainHorizontalLinearStreamed(ctx context.Context, srcs []dataset.RowSource, cfg Config) (*LinearModel, *History, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, nil, err
	}
	if cfg.ChunkRows == 0 {
		return nil, nil, fmt.Errorf("%w: streamed training needs ChunkRows > 0", ErrBadConfig)
	}
	if len(srcs) == 0 {
		return nil, nil, fmt.Errorf("%w: no learners", ErrBadPartition)
	}
	k := srcs[0].Features()
	for i, src := range srcs {
		if src == nil || src.Rows() == 0 {
			return nil, nil, fmt.Errorf("%w: learner %d has no data", ErrBadPartition, i)
		}
		if src.Features() != k {
			return nil, nil, fmt.Errorf("%w: learner %d has %d features, learner 0 has %d",
				ErrBadPartition, i, src.Features(), k)
		}
	}
	return trainHLChunked(ctx, srcs, nil, cfg)
}

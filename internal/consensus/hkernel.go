package consensus

import (
	"context"
	"fmt"
	"time"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/kernel"
	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/mapreduce"
	"github.com/ppml-go/ppml/internal/qp"
	"github.com/ppml-go/ppml/internal/telemetry"
)

// KernelHorizontalModel is the nonlinear consensus classifier of Section
// IV-B. Each learner contributes a discriminant built from its own support
// expansion plus the shared landmark expansion; Predict averages the
// learners' decision values. A model holding one learner's slices scores
// that learner's f_m alone.
type KernelHorizontalModel struct {
	Kernel    kernel.Kernel
	Landmarks *linalg.Matrix // X_g, shared by all learners

	// Per-learner expansions: f_m(x) = Σ_i CoefX[m][i]·K(x, X_m[i]) +
	// Σ_j CoefG[m][j]·K(x, X_g[j]) + B[m]. X_m holds only the support rows
	// of learner m, the rows of its partition whose coefficient is nonzero,
	// in partition order; CoefX[m] has no zero entry.
	SupportX []*linalg.Matrix
	CoefX    [][]float64
	CoefG    [][]float64
	B        []float64
}

// Decision returns the mean discriminant across learners: Decisions on x
// viewed as one row, so it has the bits of x's row in any batch. It panics
// with the linalg.ErrShape error Decisions returns when x is not as wide as
// the model's samples.
func (mod *KernelHorizontalModel) Decision(x []float64) float64 {
	return decisionOfRow(mod.Decisions, x)
}

// decisionOfRow is a kernel model's Decision: its Decisions on x viewed as a
// 1 × len(x) matrix. It panics with the error Decisions returns.
func decisionOfRow(decisions func(*linalg.Matrix, []float64) ([]float64, error), x []float64) float64 {
	var d [1]float64
	if _, err := decisions(&linalg.Matrix{Rows: 1, Cols: len(x), Data: x}, d[:]); err != nil {
		panic(err)
	}
	return d[0]
}

// Decisions scores every row of x: dst[i] is the mean discriminant of row i,
// computed on the tiled kernel path (kernel.Accumulate) without retaining a
// kernel matrix. A nil dst is allocated; otherwise it must hold x.Rows
// values, which are overwritten. The learners' landmark coefficients are
// summed first, into linalg's scratch pool, so the shared landmarks are
// scored once. The arithmetic of a row does not depend on the other rows, so
// Decision is this call on one row.
func (mod *KernelHorizontalModel) Decisions(x *linalg.Matrix, dst []float64) ([]float64, error) {
	if dst == nil {
		dst = make([]float64, x.Rows)
	} else if len(dst) != x.Rows {
		return nil, fmt.Errorf("consensus hk decisions: %w: dst length %d for %d samples", linalg.ErrShape, len(dst), x.Rows)
	}
	linalg.Zero(dst)
	var b float64
	sum := linalg.GrabScratch(1, mod.Landmarks.Rows)
	defer linalg.ReleaseScratch(sum)
	coefG := sum.Data
	linalg.Zero(coefG)
	for m := range mod.B {
		if err := kernel.Accumulate(mod.Kernel, x, mod.SupportX[m], mod.CoefX[m], dst); err != nil {
			return nil, err
		}
		linalg.Axpy(1, mod.CoefG[m], coefG)
		b += mod.B[m]
	}
	if err := kernel.Accumulate(mod.Kernel, x, mod.Landmarks, coefG, dst); err != nil {
		return nil, err
	}
	inv := 1 / float64(len(mod.B))
	for i := range dst {
		dst[i] = (dst[i] + b) * inv
	}
	return dst, nil
}

// Predict returns the consensus label for x.
func (mod *KernelHorizontalModel) Predict(x []float64) float64 {
	if mod.Decision(x) >= 0 {
		return 1
	}
	return -1
}

// TrainHorizontalKernel runs the Section IV-B scheme: consensus in the
// reduced landmark space z = G·w_m ∈ R^l, with all kernel algebra folded
// through the Woodbury identity so nothing infinite-dimensional is ever
// materialized.
func TrainHorizontalKernel(ctx context.Context, parts []*dataset.Dataset, cfg Config) (*KernelHorizontalModel, *History, error) {
	cfg, lm, hk, err := newHKJob(parts, cfg)
	if err != nil {
		return nil, nil, err
	}
	mappers := make([]mapreduce.IterativeMapper, len(hk))
	for i, mp := range hk {
		mappers[i] = mp
	}
	l := lm.xg.Rows
	final, h, err := trainMean(ctx, cfg, "hk", mappers, l+1, lm.probe(cfg, hk))
	if err != nil {
		return nil, nil, err
	}
	// The job has drained every mapper, so their state is final.
	model, err := lm.model(cfg.Kernel, hk, final[:l])
	if err != nil {
		return nil, nil, err
	}
	return model, h, nil
}

// newHKJob checks an HK job and builds what its rounds share, the
// landmarks, and one mapper per partition; it returns the normalized cfg.
func newHKJob(parts []*dataset.Dataset, cfg Config) (Config, *landmarks, []*hkMapper, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return cfg, nil, nil, err
	}
	if err := kernel.Validate(cfg.Kernel); err != nil {
		return cfg, nil, nil, fmt.Errorf("%w: kernel scheme needs a valid Config.Kernel: %v", ErrBadConfig, err)
	}
	k, err := validateHorizontalParts(parts)
	if err != nil {
		return cfg, nil, nil, err
	}
	if err := checkEvalSet(cfg, k); err != nil {
		return cfg, nil, nil, err
	}
	// Every chunk is a virtual learner (see virtualLearners), so the shared
	// landmark matrices fold the virtual cohort size M′ = Σ_m J_m.
	mprime := 0
	for _, p := range parts {
		mprime += numChunksFor(p.Len(), cfg.ChunkRows)
	}
	lm, err := newLandmarks(cfg, k, mprime)
	if err != nil {
		return cfg, nil, nil, err
	}
	hk := make([]*hkMapper, len(parts))
	for i, p := range parts {
		if hk[i], err = newHKMapper(p, i, cfg, lm); err != nil {
			return cfg, nil, nil, fmt.Errorf("learner %d: %w", i, err)
		}
	}
	return cfg, lm, hk, nil
}

// probe returns the job's accuracy probe over the mappers' partial
// decisions (landmarkAccuracy), or nil without an eval set.
func (lm *landmarks) probe(cfg Config, hk []*hkMapper) func(state []float64) (float64, error) {
	if cfg.EvalSet == nil {
		return nil
	}
	l := lm.xg.Rows
	partials := make([]*partialDecisions, len(hk))
	for i, mp := range hk {
		partials[i] = mp.partial
	}
	s, g := make([]float64, cfg.EvalSet.Len()), make([]float64, 3*l)
	return func(state []float64) (float64, error) {
		return lm.landmarkAccuracy(partials, state[:l], cfg.Rho, cfg.EvalSet.Y, s, g)
	}
}

// model folds the mappers' final state and the consensus z into the explicit
// coefficients of eq. (25). It reads the mappers' live fields, so it runs
// once the job has drained every mapper goroutine. The learners' landmark
// coefficients and matrix headers take one array each, and a learner's
// support rows and their coefficients one more.
func (lm *landmarks) model(k kernel.Kernel, hk []*hkMapper, z []float64) (*KernelHorizontalModel, error) {
	m, l := len(hk), lm.xg.Rows
	model := &KernelHorizontalModel{
		Kernel:    k,
		Landmarks: lm.xg,
		SupportX:  make([]*linalg.Matrix, m),
		CoefX:     make([][]float64, m),
		CoefG:     make([][]float64, m),
		B:         make([]float64, m),
	}
	maxRows := 0
	for _, mp := range hk {
		maxRows = max(maxRows, mp.x.Rows)
	}
	coefX, coefG, scratch := make([]float64, maxRows), make([]float64, m*l), make([]float64, 3*l)
	support := make([]linalg.Matrix, m)
	for i, mp := range hk {
		cx := coefX[:mp.x.Rows]
		model.CoefG[i] = coefG[i*l : (i+1)*l : (i+1)*l]
		b, err := mp.expansion(z, cx, model.CoefG[i], scratch)
		if err != nil {
			return nil, fmt.Errorf("consensus hk: learner %d expansion: %w", i, err)
		}
		model.B[i], model.SupportX[i], model.CoefX[i] = b, &support[i], supportRows(mp.x, cx, &support[i])
	}
	return model, nil
}

// supportRows sets sx to the rows of x whose coefficient is nonzero, in
// order, and returns those coefficients; the two share one allocation. They
// are the rows kernel.Accumulate gathers from the whole expansion, so the
// decisions they give have the same bits. The other rows add nothing to a
// decision, and the model does not keep them.
func supportRows(x *linalg.Matrix, coef []float64, sx *linalg.Matrix) []float64 {
	nz := 0
	for _, c := range coef {
		if c != 0 {
			nz++
		}
	}
	n := nz * x.Cols
	buf := make([]float64, n+nz)
	*sx = linalg.Matrix{Rows: nz, Cols: x.Cols, Data: buf[:n:n]}
	kept := buf[n:n]
	for i, c := range coef {
		if c != 0 {
			copy(sx.Row(len(kept)), x.Row(i))
			kept = append(kept, c)
		}
	}
	return kept
}

// landmarks is what every learner of one horizontal-kernel job shares: the
// public landmark points and the data-independent matrices built from them
// for a cohort of m (virtual) learners.
type landmarks struct {
	m     int
	xg    *linalg.Matrix // X_g, l × k
	kgg   *linalg.Matrix // K(X_g, X_g)
	kgInv *linalg.Matrix // K⁻¹_g = (I + ρM·K_gg)⁻¹
	gpg   *linalg.Matrix // GPGᵀ = M[K_gg − ρM·K_gg·K⁻¹_g·K_gg]

	// evalG is K(X_g, X_e), l × E: the landmarks against the eval rows, K_eg
	// stored by columns, so K_eg·c is l Axpy calls. Public × public, built
	// once; nil without an eval set.
	evalG *linalg.Matrix
}

// newLandmarks draws cfg.Landmarks public points X_g in k dimensions —
// standard Gaussian rows match standardized training data; any X_g with
// non-singular K(X_g, X_g) works (Lemma 4.2 discussion). They contain no
// private information by construction; see Config.landmarkRand for the
// determinism contract.
func newLandmarks(cfg Config, k, m int) (*landmarks, error) {
	rng := cfg.landmarkRand()
	xg := linalg.NewMatrix(cfg.Landmarks, k)
	for i := range xg.Data {
		xg.Data[i] = rng.NormFloat64()
	}
	rhoM := cfg.Rho * float64(m)
	kgg := kernel.GramMatrix(cfg.Kernel, xg)
	kgScaled := kgg.Clone()
	kgScaled.Scale(rhoM)
	if err := kgScaled.AddScaledIdentity(1); err != nil {
		return nil, err
	}
	ch, err := linalg.FactorizeCholeskyInPlace(kgScaled)
	if err != nil {
		return nil, fmt.Errorf("consensus hk: landmark matrix not SPD (raise Landmarks diversity or lower ρ): %w", err)
	}
	kgInv, err := ch.Inverse()
	if err != nil {
		return nil, err
	}
	kgKgInv, err := linalg.MatMul(kgg, kgInv)
	if err != nil {
		return nil, err
	}
	kgCorr, err := linalg.MatMul(kgKgInv, kgg)
	if err != nil {
		return nil, err
	}
	gpg := kgg.Clone()
	for i := range gpg.Data {
		gpg.Data[i] = float64(m) * (gpg.Data[i] - float64(rhoM*kgCorr.Data[i]))
	}
	lm := &landmarks{m: m, xg: xg, kgg: kgg, kgInv: kgInv, gpg: gpg}
	if cfg.EvalSet != nil {
		if lm.evalG, err = kernel.Matrix(cfg.Kernel, xg, cfg.EvalSet.X); err != nil {
			return nil, err
		}
	}
	return lm, nil
}

// hkMapper is one learner's Map() task for the horizontal kernel scheme: the
// hlMapper structure lifted to the reduced landmark space, with the same
// virtual-learner cohort (every M factor is the landmarks' M′).
type hkMapper struct {
	cfg Config
	lm  *landmarks

	x *linalg.Matrix
	y []float64

	kmg     *linalg.Matrix // K(X_m, X_g), full partition; chunk rows are views
	kgInvKm *linalg.Matrix // K⁻¹_g·K_gm, for the expansion

	sched *chunkSchedule
	vl    virtualLearners
	// ylambda is Yλ over the n rows: it stitches the chunks' duals together,
	// and a round rewrites its chunk's rows only. With the virtual learners'
	// means r̄ and b̄ it is all eq. (25) needs of the mapper.
	ylambda []float64

	// The P-folded blocks of chunk built: q = Y·ΦPΦᵀ·Y + (1/ρ)yyᵀ restricted
	// to the chunk (n_c × n_c) and phiPG = ΦPGᵀ|_c (n_c × l). They depend on
	// the chunk's rows only, so they are rebuilt when the schedule moves to
	// another chunk and not otherwise: with one chunk, once. Both buffers
	// are sized to the largest chunk and reused across rebuilds.
	q, phiPG *linalg.Matrix
	built    int

	// Round scratch: p is sized to the largest chunk, gu to the landmarks.
	p, gu    []float64 // p is ΦPGᵀu, then the QP's linear term
	solve    localSolve
	chunkDur *telemetry.Histogram

	// With an eval set: the probe's share (see score); its running kernel
	// part kp = K(X_e, X_m)·scored (E values) and scored, the M′·Yλ kp was
	// last brought to (n); its scratch, M′·Yλ and then its change since
	// scored (n), and l zeros (z = 0), the landmark coefficients and
	// expansion's 3l of scratch (5l); and the count of the support rows the
	// probe scores.
	partial                 *partialDecisions
	kp, scored, coef, lmBuf []float64
	probeRows               *telemetry.Counter
}

// newHKMapper builds learner id's Map() task; lm.m is the virtual cohort
// size M′ of the job.
func newHKMapper(p *dataset.Dataset, id int, cfg Config, lm *landmarks) (*hkMapper, error) {
	kmg, err := kernel.Matrix(cfg.Kernel, p.X, lm.xg)
	if err != nil {
		return nil, err
	}
	kgInvKm, err := linalg.MatMulT(lm.kgInv, kmg)
	if err != nil {
		return nil, err
	}
	sched := newChunkSchedule(p.Len(), cfg.ChunkRows, cfg.Seed, id)
	maxC := sched.chunkRows
	l := lm.xg.Rows
	mp := &hkMapper{
		cfg: cfg, lm: lm,
		x: p.X, y: p.Y,
		kmg: kmg, kgInvKm: kgInvKm,
		sched: sched, vl: newVirtualLearners(sched.numChunks, l),
		ylambda: make([]float64, p.Len()),
		q:       linalg.NewMatrix(maxC, maxC), phiPG: linalg.NewMatrix(maxC, l),
		p:        make([]float64, maxC),
		gu:       make([]float64, l),
		chunkDur: cfg.Telemetry.Histogram(metricChunkSeconds, telemetry.DurationBuckets),
		partial:  newPartials(cfg),
	}
	if mp.partial != nil {
		mp.kp, mp.lmBuf = make([]float64, cfg.EvalSet.Len()), make([]float64, 5*l)
		mp.scored, mp.coef = make([]float64, p.Len()), make([]float64, p.Len())
		mp.probeRows = cfg.Telemetry.Counter(metricProbeKernelRows)
	}
	mp.solve.init(l+1, cfg.Telemetry)
	// The first chunk's blocks are built here rather than in round 0:
	// constructors run one at a time and first rounds side by side, and the
	// build's n_c × n_c intermediate should exist once, not once per learner.
	idx, lo, hi := sched.chunk(0)
	if err := mp.build(lo, hi); err != nil {
		return nil, err
	}
	mp.built = idx
	return mp, nil
}

// build computes the P-folded blocks of rows [lo, hi) — the Woodbury
// formulas of the package comment with Φ cut down to the chunk's rows:
//
//	ΦPΦᵀ|_c = M′[K_cc − ρM′·A1·K_gc],  ΦPGᵀ|_c = M′[K_cg − ρM′·A1·K_gg],  A1 = K_cg·K⁻¹_g.
//
// A1 and A1·K_gc are intermediates and not kept; q and phiPG are finished in
// the buffers K_cc and A1·K_gg were computed into.
func (mp *hkMapper) build(lo, hi int) error {
	xc := rowView(mp.x, lo, hi)
	kmgC := rowView(mp.kmg, lo, hi)
	yc := mp.y[lo:hi]
	mf := float64(mp.lm.m)
	rhoM := mp.cfg.Rho * mf
	a1, err := linalg.MatMul(kmgC, mp.lm.kgInv)
	if err != nil {
		return err
	}
	corr, err := linalg.MatMulT(a1, kmgC)
	if err != nil {
		return err
	}
	if mp.phiPG, err = linalg.MatMulInto(a1, mp.lm.kgg, mp.phiPG); err != nil {
		return err
	}
	for i, v := range mp.phiPG.Data {
		mp.phiPG.Data[i] = mf * (kmgC.Data[i] - float64(rhoM*v))
	}
	if mp.q, err = kernel.MatrixInto(mp.cfg.Kernel, xc, xc, mp.q); err != nil {
		return err
	}
	for i := range yc {
		qrow, crow := mp.q.Row(i), corr.Row(i)
		for j := range qrow {
			phiP := mf * (qrow[j] - float64(rhoM*crow[j]))
			qrow[j] = float64(yc[i]*yc[j]*phiP) + yc[i]*yc[j]/mp.cfg.Rho
		}
	}
	mp.q.SymmetrizeUpper()
	return nil
}

// Contribution implements mapreduce.IterativeMapper.
func (mp *hkMapper) Contribution(iter int, state []float64) ([]float64, error) {
	start := time.Now()
	idx, lo, hi := mp.sched.chunk(iter)
	nc := hi - lo
	yc := mp.y[lo:hi]
	if idx != mp.built {
		if err := mp.build(lo, hi); err != nil {
			return nil, err
		}
		mp.built = idx
	}

	// Linear term: ρ·Y·ΦPGᵀ·u + t·y − 1 with u = z − r_c.
	c, u, t := mp.vl.open(idx, nc, state)
	p, err := mp.phiPG.MulVec(u, mp.p[:nc])
	if err != nil {
		return nil, err
	}
	for i, pg := range p {
		p[i] = float64(mp.cfg.Rho*yc[i]*pg) + float64(t*yc[i]) - 1
	}
	res, err := qp.SolveBox(qp.Problem{Q: mp.q, P: p, C: mp.cfg.C}, mp.solve.options(state, c.lambda)...)
	if err != nil {
		return nil, fmt.Errorf("consensus hk local solve: %w", err)
	}

	// Gw = (ΦPGᵀ)ᵀ·Yλ + ρ·GPGᵀ·u; b = t + (1/ρ)·yᵀλ. Yλ lands in the chunk's
	// rows of ylambda, and Gw in c.prev, which the dual update is done with.
	ylambda := mp.ylambda[lo:hi]
	sumYL := 0.0
	for i := range ylambda {
		ylambda[i] = float64(yc[i] * res.Lambda[i])
		sumYL += ylambda[i]
	}
	gw, err := mp.phiPG.MulVecT(ylambda, c.prev)
	if err != nil {
		return nil, err
	}
	gu, err := mp.lm.gpg.MulVec(u, mp.gu)
	if err != nil {
		return nil, err
	}
	linalg.Axpy(mp.cfg.Rho, gu, gw)
	contrib := mp.vl.commit(c, res.Lambda, t+sumYL/mp.cfg.Rho)
	if mp.partial != nil {
		if err := mp.score(); err != nil {
			return nil, err
		}
	}
	mp.chunkDur.Observe(time.Since(start).Seconds())
	return contrib, nil
}

// score stores the mapper's share of the probe, its partial decisions on the
// eval rows X_e:
//
//	p_m = K(X_e, X_m)·coefX + K_eg·c + b̄
//
// where coefX, c and b̄ are the expansion at z = 0. The landmark coefficients
// are linear in z, so c is the part that does not depend on z; the Reducer
// adds the part that does once for all learners (landmarks.landmarkAccuracy).
//
// The kernel part is a running sum: a round adds K(X_e, X_m)·Δ into kp, Δ
// the change of coefX since the last score, and kernel.Accumulate scores
// only the rows whose coefficient moved. When Δ has as many nonzeros as
// coefX, as in a mapper's first round, kp is rescored from zero over coefX
// instead, so no round scores more rows than a full rescore and the
// rounding the sum gathered is dropped. c and b̄ are l + 1 values, formed
// afresh every round.
func (mp *hkMapper) score() error {
	l := mp.vl.dim
	zero, c := mp.lmBuf[:l], mp.lmBuf[l:2*l]
	b, err := mp.expansion(zero, mp.coef, c, mp.lmBuf[2*l:])
	if err != nil {
		return err
	}
	// coef becomes Δ and scored this round's coefX.
	nnz, moved := 0, 0
	for i, v := range mp.coef {
		d := v - mp.scored[i]
		mp.scored[i], mp.coef[i] = v, d
		if v != 0 {
			nnz++
		}
		if d != 0 {
			moved++
		}
	}
	rows := mp.coef
	if moved >= nnz {
		linalg.Zero(mp.kp)
		rows, moved = mp.scored, nnz
	}
	if err := kernel.Accumulate(mp.cfg.Kernel, mp.cfg.EvalSet.X, mp.x, rows, mp.kp); err != nil {
		return err
	}
	mp.probeRows.Add(int64(moved))
	dec := mp.partial.next
	copy(dec, mp.kp)
	for j, cj := range c {
		linalg.Axpy(cj, mp.lm.evalG.Row(j), dec)
	}
	for i := range dec {
		dec[i] += b
	}
	mp.partial.swap()
	return nil
}

// expansion writes into coefX (n values) and coefG (l) the explicit
// kernel-expansion coefficients of the mapper's dual state at the consensus z
// (eq. 25), and returns the bias b:
//
//	f(x) = Σᵢ coefX[i]·K(x, xᵢ) + Σⱼ coefG[j]·K(x, x_g[j]) + b
//	coefX = M′·Yλ
//	coefG = −ρM′²·K⁻¹_g·K_gm·Yλ + ρM′·(I − ρM′·K⁻¹_g·K_gg)·(z − r̄)
//	b = b̄
//
// scratch holds 3l values. It reads the mapper's live fields: inside
// Contribution, or once the job has drained every mapper goroutine.
func (mp *hkMapper) expansion(z, coefX, coefG, scratch []float64) (float64, error) {
	l := mp.vl.dim
	u := scratch[:l] // r̄, then z − r̄
	b := mp.vl.means(u)
	for i, yl := range mp.ylambda {
		coefX[i] = float64(mp.lm.m) * yl
	}
	linalg.SubVec(z, u, u)
	return b, mp.lm.coefficients(mp.kgInvKm, mp.ylambda, u, mp.cfg.Rho, coefG, scratch[l:])
}

// coefficients writes into dst the coefG term of eq. (25) for a learner with
// scaled dual Yλ and u = z − r, in the cohort of lm.m (virtual) learners:
//
//	−ρM²·K⁻¹_g·K_gm·Yλ + ρM·(I − ρM·K⁻¹_g·K_gg)·u
//
// kgInvKm is the learner's K⁻¹_g·K_gm; nil drops the Yλ term, which leaves
// the part every learner shares. scratch holds 2l values. The operand shapes
// are fixed when the mapper is built, so an error here is a broken
// invariant, not an input condition.
func (lm *landmarks) coefficients(kgInvKm *linalg.Matrix, ylambda, u []float64, rho float64, dst, scratch []float64) error {
	l := len(dst)
	t1 := dst
	if kgInvKm == nil {
		linalg.Zero(t1)
	} else if _, err := kgInvKm.MulVec(ylambda, t1); err != nil {
		return err
	}
	kgu, err := lm.kgg.MulVec(u, scratch[:l])
	if err != nil {
		return err
	}
	t2, err := lm.kgInv.MulVec(kgu, scratch[l:])
	if err != nil {
		return err
	}
	m := float64(lm.m)
	linalg.Scale(-rho*m*m, t1)
	rhoM := rho * m
	for j := range dst {
		dst[j] = t1[j] + float64(rhoM*(u[j]-float64(rhoM*t2[j])))
	}
	return nil
}

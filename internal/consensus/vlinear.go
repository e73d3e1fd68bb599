package consensus

import (
	"context"
	"fmt"
	"time"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/mapreduce"
	"github.com/ppml-go/ppml/internal/qp"
	"github.com/ppml-go/ppml/internal/svm"
	"github.com/ppml-go/ppml/internal/telemetry"
)

// TrainVerticalLinear runs the Section IV-C scheme: M learners each hold a
// vertical share (feature columns) of every record, labels are shared, and
// the learners reach consensus on the score vector z = Σ_m X_m w_m through
// the secure Reducer, which also solves the hinge proximal step. cols[m]
// lists the global column indices learner m holds (as returned by
// partition.Vertical); the returned model reassembles the full-width weight
// vector from the per-learner blocks.
func TrainVerticalLinear(ctx context.Context, parts []*dataset.Dataset, cols [][]int, cfg Config) (*LinearModel, *History, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, nil, err
	}
	_, features, err := validateVerticalParts(parts, cols)
	if err != nil {
		return nil, nil, err
	}
	if err := checkEvalSet(cfg, features); err != nil {
		return nil, nil, err
	}
	mappers := make([]mapreduce.IterativeMapper, len(parts))
	partials := make([]*partialDecisions, len(parts))
	vl := make([]*vlMapper, len(parts))
	for i, p := range parts {
		if vl[i], err = newVLMapper(p, cols[i], cfg); err != nil {
			return nil, nil, fmt.Errorf("learner %d: %w", i, err)
		}
		mappers[i], partials[i] = vl[i], vl[i].partial
	}
	b, h, err := trainVertical(ctx, parts, cfg, mappers, partials)
	if err != nil {
		return nil, nil, err
	}
	w := make([]float64, features)
	for i, mp := range vl {
		for j, c := range cols[i] {
			w[c] = mp.w[j]
		}
	}
	return &LinearModel{W: w, B: b}, h, nil
}

// trainVertical runs the job both vertical schemes share — their Reducer and
// consensus state, the N-vector of scores, are the same — and returns the
// Reducer's final bias. With an EvalSet, the Reducer's probe sums the
// learners' partial decisions with b every round (verticalAccuracy). The
// caller assembles the model from its mappers once the job has drained them.
func trainVertical(ctx context.Context, parts []*dataset.Dataset, cfg Config, mappers []mapreduce.IterativeMapper, partials []*partialDecisions) (float64, *History, error) {
	rows := parts[0].Len()
	red := newVerticalReducer(parts[0].Y, cfg)
	if cfg.EvalSet != nil {
		s := make([]float64, cfg.EvalSet.Len())
		red.rounds.probe = func() (float64, error) {
			return verticalAccuracy(partials, red.b, cfg.EvalSet.Y, s)
		}
	}
	job := mapreduce.IterativeJob{
		Mappers:         mappers,
		Reducer:         red,
		InitialState:    make([]float64, rows),
		ContributionDim: rows,
		MaxIterations:   cfg.MaxIterations,
	}
	_, h, err := runJob(ctx, cfg, job)
	if err != nil {
		return 0, nil, err
	}
	h.DeltaZSq, h.Accuracy = red.rounds.deltaZSq, red.rounds.accuracy
	return red.b, h, nil
}

// vlMapper is one learner's Map() task for the vertical linear scheme: a
// block-coordinate ridge fit. Each round it refits its whole weight block to
// the scheduled chunk's rows — with one chunk, to every record — and
// contributes the refreshed scores on the chunk's coordinates, zero
// elsewhere, so the Reducer's fold sees exactly the coordinates every learner
// updated. Mappers and the Reducer follow one shared schedule.
type vlMapper struct {
	cfg   Config
	x     *linalg.Matrix // N × k_m feature block (private)
	sched *chunkSchedule

	w []float64 // current block weights

	// ch factors I + ρs·X_cᵀX_c and xw holds X_c·w for chunk built: both are
	// recomputed when the schedule moves to another chunk and stand
	// otherwise, so with one chunk the ridge matrix is factored once and
	// each round's X·w carries into the next.
	ch    *linalg.Cholesky
	a     *linalg.Matrix // the ridge matrix's buffer, k_m × k_m; factored in place, so it is ch's storage
	xw    []float64
	built int

	q, xtq   []float64 // round scratch
	chunkDur *telemetry.Histogram
	cached   []float64 // the contribution, over all N coordinates

	// With an eval set: the probe's share, X_e|cols·w, scored from evalT,
	// the learner's columns of the eval rows stored by columns (k_m × E), as
	// k_m Axpy calls.
	partial *partialDecisions
	evalT   *linalg.Matrix
}

// newVLMapper builds the Map() task of the learner holding p, the global
// feature columns cols of every record.
func newVLMapper(p *dataset.Dataset, cols []int, cfg Config) (*vlMapper, error) {
	sched := newChunkSchedule(p.Len(), cfg.ChunkRows, cfg.Seed, sharedChunkStream)
	mp := &vlMapper{
		cfg:      cfg,
		x:        p.X,
		sched:    sched,
		w:        make([]float64, p.Features()),
		xw:       make([]float64, sched.chunkRows),
		q:        make([]float64, sched.chunkRows),
		xtq:      make([]float64, p.Features()),
		chunkDur: cfg.Telemetry.Histogram(metricChunkSeconds, telemetry.DurationBuckets),
		cached:   make([]float64, p.Len()),
		partial:  newPartials(cfg),
	}
	if mp.partial != nil {
		mp.evalT = linalg.NewMatrix(len(cols), cfg.EvalSet.Len())
		for j, c := range cols {
			cfg.EvalSet.X.Col(c, mp.evalT.Row(j))
		}
	}
	// The first chunk's factor is built here rather than in round 0 (see
	// newHKMapper); w is zero, so xw = X_c·w already holds.
	idx, lo, hi := sched.chunk(0)
	if err := mp.build(rowView(mp.x, lo, hi)); err != nil {
		return nil, err
	}
	mp.built = idx
	return mp, nil
}

// build factors the ridge matrix I + ρs·X_cᵀX_c of the chunk xc. The
// transpose is an intermediate and not kept.
func (mp *vlMapper) build(xc *linalg.Matrix) error {
	xt := xc.T()
	var err error
	if mp.a, err = linalg.MatMulTInto(xt, xt, mp.a); err != nil {
		return err
	}
	mp.a.Scale(mp.cfg.Rho * mp.sched.weight(xc.Rows))
	if err := mp.a.AddScaledIdentity(1); err != nil {
		return err
	}
	if mp.ch, err = linalg.FactorizeCholeskyInPlace(mp.a); err != nil {
		return fmt.Errorf("consensus vl: ridge matrix not SPD: %w", err)
	}
	return nil
}

// Contribution implements mapreduce.IterativeMapper: the w_m-update of the
// sharing ADMM restricted to the round's chunk, w = ρs(I + ρs·X_cᵀX_c)⁻¹X_cᵀq_c
// with q_c = X_c·w_prev + state|_c and s the schedule's chunk weight.
func (mp *vlMapper) Contribution(iter int, state []float64) ([]float64, error) {
	if len(state) != mp.x.Rows {
		return nil, fmt.Errorf("%w: state of %d values for %d records", ErrBadPartition, len(state), mp.x.Rows)
	}
	start := time.Now()
	idx, lo, hi := mp.sched.chunk(iter)
	nc := hi - lo
	rhoS := mp.cfg.Rho * mp.sched.weight(nc)
	xc := rowView(mp.x, lo, hi)
	xw := mp.xw[:nc]
	if idx != mp.built {
		if err := mp.build(xc); err != nil {
			return nil, err
		}
		if _, err := xc.MulVec(mp.w, xw); err != nil {
			return nil, err
		}
		mp.built = idx
	}

	// Every vector below lands in a mapper-owned buffer, so a steady-state
	// round over one chunk allocates nothing.
	q := linalg.AddVec(xw, state[lo:hi], mp.q[:nc])
	xtq, err := xc.MulVecT(q, mp.xtq)
	if err != nil {
		return nil, err
	}
	w, err := mp.ch.SolveVec(xtq, mp.w)
	if err != nil {
		return nil, err
	}
	linalg.Scale(rhoS, w)
	if _, err := xc.MulVec(w, xw); err != nil {
		return nil, err
	}
	linalg.Zero(mp.cached[:lo])
	copy(mp.cached[lo:hi], xw)
	linalg.Zero(mp.cached[hi:])
	if mp.partial != nil {
		if _, err := mp.evalT.MulVecT(w, mp.partial.next); err != nil {
			return nil, err
		}
		mp.partial.swap()
	}
	mp.chunkDur.Observe(time.Since(start).Seconds())
	return mp.cached, nil
}

// verticalReducer is the Reduce() side shared by both vertical schemes: it
// owns the shared labels, solves the hinge proximal QP on the securely
// summed scores, and maintains the scaled dual u.
type verticalReducer struct {
	y      []float64
	cfg    Config
	rounds roundLog // its probe sums the learners' partial decisions with b

	// weight is what the upcoming round's sum adds up to (SetRoundWeight):
	// the number of learners folded. A demoted vertical learner's feature block drops out of the consensus
	// score for the round, so every M-dependent coefficient of the prox step
	// is this weight, which keeps the fold consistent; it is the only cohort
	// size the reducer knows.
	weight float64

	// sched is the Seed-derived schedule the mappers follow too: each round
	// only its chunk's coordinates of the shared score vector are folded and
	// prox-updated — with one chunk, all of them.
	sched *chunkSchedule

	// Per-coordinate state, persisting across rounds: coordinates outside
	// the round's chunk keep their last folded values, so the broadcast
	// z̄ − ā − u stays consistent at every coordinate.
	abar, u, zbar, prevZeta []float64
	b                       float64

	// Round scratch, allocated once so steady-state Combine calls are
	// allocation-free: d/p/zeta feed the prox step over the chunk, next is
	// the broadcast buffer (consumed by the mappers before the following
	// Combine overwrites it).
	d, p, zeta, next []float64
	qpScratch        qp.Scratch
	qpOpts           []qp.Option // prebuilt once, reused every solve
}

func newVerticalReducer(y []float64, cfg Config) *verticalReducer {
	n := len(y)
	sched := newChunkSchedule(n, cfg.ChunkRows, cfg.Seed, sharedChunkStream)
	r := &verticalReducer{
		y:        linalg.CopyVec(y),
		cfg:      cfg,
		rounds:   newRoundLog(cfg, "vl-vk"),
		sched:    sched,
		abar:     make([]float64, n),
		u:        make([]float64, n),
		zbar:     make([]float64, n),
		prevZeta: make([]float64, n),
		d:        make([]float64, sched.chunkRows),
		p:        make([]float64, sched.chunkRows),
		zeta:     make([]float64, sched.chunkRows),
		next:     make([]float64, n),
	}
	r.qpOpts = []qp.Option{qp.WithTelemetry(cfg.Telemetry), qp.WithScratch(&r.qpScratch)}
	return r
}

// SetRoundWeight implements mapreduce.WeightedReducer: see the weight field.
func (r *verticalReducer) SetRoundWeight(total float64) { r.weight = total }

// Combine implements mapreduce.IterativeReducer: the (z, b)-update and dual
// step of the sharing ADMM on the round's chunk coordinates, then the next
// broadcast z̄ − ā − u over all of them. The residual is scaled by N/n_c so
// Tol keeps its one-chunk meaning.
func (r *verticalReducer) Combine(iter int, sum []float64) ([]float64, bool, error) {
	n := len(r.y)
	if len(sum) != n {
		return nil, false, fmt.Errorf("%w: aggregate of %d values for %d records", ErrBadPartition, len(sum), n)
	}
	mf := r.weight
	_, lo, hi := r.sched.chunk(iter)
	abar, u, y := r.abar[lo:hi], r.u[lo:hi], r.y[lo:hi]
	for i := range abar {
		abar[i] = sum[lo+i] / mf
	}
	d := linalg.AddVec(u, abar, r.d[:hi-lo])

	// Prox-hinge dual: min ½(M/ρ)‖λ‖² + (M·Y·d − 1)ᵀλ, 0 ≤ λ ≤ C, yᵀλ = 0
	// (M being the round's announced weight).
	p := r.p[:hi-lo]
	for i := range p {
		p[i] = float64(mf*y[i]*d[i]) - 1
	}
	res, err := qp.SolveUniformDiagEqualityBox(mf/r.cfg.Rho, p, r.cfg.C, y, r.qpOpts...)
	if err != nil {
		return nil, false, fmt.Errorf("consensus vertical reducer solve: %w", err)
	}

	// ζ = M·d + (M/ρ)·Yλ; z̄ = ζ/M; u ← u + ā − z̄.
	zeta, zbar := r.zeta[:hi-lo], r.zbar[lo:hi]
	for i := range zeta {
		zeta[i] = float64(mf*d[i]) + float64(mf/r.cfg.Rho*y[i]*res.Lambda[i])
		zbar[i] = zeta[i] / mf
		u[i] += abar[i] - zbar[i]
	}
	// b from the KKT conditions of the hinge step, ζ being the scores.
	r.b = svm.BiasFromKKT(zeta, y, res.Lambda, r.cfg.C)
	delta := linalg.Dist2Sq(zeta, r.prevZeta[lo:hi]) * r.sched.weight(hi-lo)
	copy(r.prevZeta[lo:hi], zeta)
	done, err := r.rounds.record(iter, delta)
	if err != nil {
		return nil, false, err
	}

	next := r.next
	for i := range next {
		next[i] = r.zbar[i] - r.abar[i] - r.u[i]
	}
	return next, done, nil
}

package consensus

import (
	"context"
	"fmt"
	"math"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/eval"
	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/mapreduce"
	"github.com/ppml-go/ppml/internal/qp"
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
	rows, features, err := validateVerticalParts(parts, cols)
	if err != nil {
		return nil, nil, err
	}
	if err := checkVerticalChunkConfig(cfg); err != nil {
		return nil, nil, err
	}
	m := len(parts)

	mappers := make([]mapreduce.IterativeMapper, m)
	vlMappers := make([]vlBlock, m)
	for i, p := range parts {
		var mp vlBlock
		var err error
		if cfg.ChunkRows > 0 {
			mp, err = newVLChunkMapper(p, cfg)
		} else {
			mp, err = newVLMapper(p, cfg)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("learner %d: %w", i, err)
		}
		mappers[i] = mp
		vlMappers[i] = mp
	}
	assemble := func(b float64) *LinearModel {
		w := make([]float64, features)
		for i, mp := range vlMappers {
			for j, c := range cols[i] {
				w[c] = mp.blockWeights()[j]
			}
		}
		return &LinearModel{W: w, B: b}
	}
	red := newVerticalReducer(parts[0].Y, m, cfg)
	if cfg.ChunkRows > 0 {
		red.sched = newChunkSchedule(rows, cfg.ChunkRows, cfg.Seed, sharedChunkStream)
	}
	if cfg.EvalSet != nil {
		red.eval = func(b float64) (float64, error) {
			return eval.ClassifierAccuracy(assemble(b), cfg.EvalSet)
		}
	}

	job := mapreduce.IterativeJob{
		Mappers:         mappers,
		Reducer:         red,
		InitialState:    make([]float64, rows),
		ContributionDim: rows,
		MaxIterations:   cfg.MaxIterations,
	}
	_, h, err := runJob(ctx, cfg, job, parts)
	if err != nil {
		return nil, nil, err
	}
	h.DeltaZSq = red.deltaZSq
	h.Accuracy = red.accuracy
	return assemble(red.b), h, nil
}

// vlBlock is what model assembly needs from a vertical-linear Map() task —
// the full-batch and the minibatch mappers both provide it.
type vlBlock interface {
	mapreduce.IterativeMapper
	// blockWeights is the learner's current weight block.
	blockWeights() []float64
}

// checkVerticalChunkConfig rejects the minibatch × bounded-staleness
// combination for the vertical schemes: the Reducer derives the round's
// coordinate block from the iteration number, so a share computed s rounds
// ago would carry scores for a different chunk than the one being folded.
// The horizontal schemes have no such alignment (their shares are model
// iterates, not coordinate blocks), so they allow both together.
func checkVerticalChunkConfig(cfg Config) error {
	if cfg.ChunkRows > 0 && cfg.Staleness > 0 {
		return fmt.Errorf("%w: the vertical schemes cannot combine ChunkRows with Staleness (chunk-coordinate alignment; see DESIGN.md §15)", ErrBadConfig)
	}
	return nil
}

// vlMapper is one learner's Map() task for the vertical linear scheme: a
// ridge-regularized least-squares fit of its feature block to the broadcast
// residual target.
type vlMapper struct {
	cfg Config
	x   *linalg.Matrix // N × k_m feature block (private)
	ch  *linalg.Cholesky

	w      []float64 // current block weights
	prevXw []float64 // X_m·w at the previous iterate
	q      []float64 // residual-target scratch, reused every round
	xtq    []float64 // Xᵀq scratch, reused every round

	lastIter int
	cached   []float64
}

func (mp *vlMapper) blockWeights() []float64 { return mp.w }

func newVLMapper(p *dataset.Dataset, cfg Config) (*vlMapper, error) {
	// (I + ρ·X_mᵀX_m) is constant across iterations: factor once.
	gram, err := linalg.MatMulT(p.X.T(), p.X.T())
	if err != nil {
		return nil, err
	}
	gram.Scale(cfg.Rho)
	if err := gram.AddScaledIdentity(1); err != nil {
		return nil, err
	}
	ch, err := linalg.FactorizeCholesky(gram)
	if err != nil {
		return nil, fmt.Errorf("consensus vl: ridge matrix not SPD: %w", err)
	}
	return &vlMapper{
		cfg:      cfg,
		x:        p.X,
		ch:       ch,
		w:        make([]float64, p.Features()),
		prevXw:   make([]float64, p.Len()),
		lastIter: -1,
	}, nil
}

// Contribution implements mapreduce.IterativeMapper: the w_m-update of the
// sharing ADMM, w = ρ(I + ρXᵀX)⁻¹Xᵀq with q = X·w_prev + broadcast.
func (mp *vlMapper) Contribution(iter int, state []float64) ([]float64, error) {
	if iter == mp.lastIter && mp.cached != nil {
		return mp.cached, nil
	}
	if len(state) != mp.x.Rows {
		return nil, fmt.Errorf("%w: state of %d values for %d records", ErrBadPartition, len(state), mp.x.Rows)
	}
	// Every vector below lands in a mapper-owned buffer, so a steady-state
	// round allocates nothing: q and xtq are round scratch, w and prevXw are
	// the carried state, and cached doubles as the returned contribution.
	mp.q = linalg.AddVec(mp.prevXw, state, mp.q)
	xtq, err := mp.x.MulVecT(mp.q, mp.xtq)
	if err != nil {
		return nil, err
	}
	mp.xtq = xtq
	w, err := mp.ch.SolveVec(xtq, mp.w)
	if err != nil {
		return nil, err
	}
	linalg.Scale(mp.cfg.Rho, w)
	mp.w = w
	// q has been consumed, so prevXw is free to take this round's X·w.
	xw, err := mp.x.MulVec(w, mp.prevXw)
	if err != nil {
		return nil, err
	}
	mp.prevXw = xw
	if mp.cached == nil {
		mp.cached = make([]float64, len(xw))
	}
	copy(mp.cached, xw)
	mp.lastIter = iter
	return mp.cached, nil
}

// verticalReducer is the Reduce() side shared by both vertical schemes: it
// owns the shared labels, solves the hinge proximal QP on the securely
// summed scores, and maintains the scaled dual u.
type verticalReducer struct {
	y    []float64
	m    int
	cfg  Config
	eval func(b float64) (float64, error)
	tel  reducerGauges

	// live is the participant count of the upcoming round
	// (SetRoundParticipants, the distributed engine's roster size); 0 — the
	// local engine never calls it — means the full cohort. A demoted vertical
	// learner's feature block drops out of the consensus score for the round,
	// so every M-dependent coefficient of the prox step scales to the live
	// count to keep the fold consistent.
	live int
	// weight is the round's total staleness weight W = Σ κ^{s_i} under
	// bounded-staleness rounds (SetRoundWeight); 0 means synchronous rounds.
	weight float64

	// sched, when non-nil, runs the Reducer's side of minibatch mode: only
	// the round's chunk coordinates of the shared score vector are folded and
	// prox-updated, following the same Seed-derived schedule the mappers use.
	sched *chunkSchedule
	// abar persists the per-coordinate mean contribution across rounds in
	// minibatch mode (non-chunk coordinates keep their last folded value, so
	// the broadcast z̄ − ā − u stays consistent at every coordinate).
	abarFull []float64

	u        []float64
	zbar     []float64
	prevZeta []float64
	b        float64

	// Round scratch, allocated once so steady-state Combine calls are
	// allocation-free: abar/d/p feed the prox step, zeta and prevZeta swap
	// roles every round, next is the broadcast buffer (consumed by the
	// mappers before the following Combine overwrites it).
	abar, d, p, zeta, next []float64
	qpScratch              qp.Scratch
	qpOpts                 []qp.Option // prebuilt once, reused every solve

	deltaZSq []float64
	accuracy []float64
}

func newVerticalReducer(y []float64, m int, cfg Config) *verticalReducer {
	n := len(y)
	r := &verticalReducer{
		y:    linalg.CopyVec(y),
		m:    m,
		cfg:  cfg,
		tel:  newReducerGauges(cfg.Telemetry, "vl-vk"),
		u:    make([]float64, n),
		zbar: make([]float64, n),
		abar: make([]float64, n),
		d:    make([]float64, n),
		p:    make([]float64, n),
		zeta: make([]float64, n),
		next: make([]float64, n),

		deltaZSq: make([]float64, 0, cfg.MaxIterations),
		accuracy: make([]float64, 0, cfg.MaxIterations),
	}
	r.qpOpts = []qp.Option{qp.WithTelemetry(cfg.Telemetry), qp.WithScratch(&r.qpScratch)}
	return r
}

// SetRoundParticipants implements mapreduce.RosterReducer: see the live
// field.
func (r *verticalReducer) SetRoundParticipants(n int) { r.live = n }

// SetRoundWeight implements mapreduce.WeightedReducer: under bounded-
// staleness rounds the aggregate is Σ κ^{s_i}·a_i, so the mean contribution
// ā divides by the total weight instead of the head count.
func (r *verticalReducer) SetRoundWeight(total float64) { r.weight = total }

// Combine implements mapreduce.IterativeReducer: the (z, b)-update and dual
// step of the sharing ADMM, then the next broadcast z̄ − ā − u.
func (r *verticalReducer) Combine(iter int, sum []float64) ([]float64, bool, error) {
	n := len(r.y)
	if len(sum) != n {
		return nil, false, fmt.Errorf("%w: aggregate of %d values for %d records", ErrBadPartition, len(sum), n)
	}
	mf := float64(r.m)
	if r.live > 0 {
		mf = float64(r.live)
	}
	if r.weight > 0 {
		mf = r.weight
	}
	if r.sched != nil {
		return r.combineChunk(iter, sum, mf)
	}
	abar := r.abar
	for i := range abar {
		abar[i] = sum[i] / mf
	}
	d := linalg.AddVec(r.u, abar, r.d)

	// Prox-hinge dual: min ½(M/ρ)‖λ‖² + (M·Y·d − 1)ᵀλ, 0 ≤ λ ≤ C, yᵀλ = 0
	// (M being the round's live learner count).
	p := r.p
	for i := range p {
		p[i] = mf*r.y[i]*d[i] - 1
	}
	res, err := qp.SolveUniformDiagEqualityBox(mf/r.cfg.Rho, p, r.cfg.C, r.y, 0, r.qpOpts...)
	if err != nil {
		return nil, false, fmt.Errorf("consensus vertical reducer solve: %w", err)
	}

	// ζ = M·d + (M/ρ)·Yλ; z̄ = ζ/M; u ← u + ā − z̄.
	zeta := r.zeta
	for i := range zeta {
		zeta[i] = mf*d[i] + mf/r.cfg.Rho*r.y[i]*res.Lambda[i]
		r.zbar[i] = zeta[i] / mf
		r.u[i] += abar[i] - r.zbar[i]
	}
	r.b = biasFromScores(zeta, r.y, res.Lambda, r.cfg.C)

	var delta float64
	if r.prevZeta == nil {
		delta = linalg.Norm2Sq(zeta)
		r.prevZeta = linalg.CopyVec(zeta)
	} else {
		delta = linalg.Dist2Sq(zeta, r.prevZeta)
		// Swap rather than copy: zeta's buffer becomes next round's scratch.
		r.prevZeta, r.zeta = r.zeta, r.prevZeta
	}
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
		next[i] = r.zbar[i] - abar[i] - r.u[i]
	}
	done := r.cfg.Tol > 0 && delta < r.cfg.Tol
	return next, done, nil
}

// biasFromScores recovers b from the KKT conditions of the hinge step: free
// support vectors satisfy y_i(ζ_i + b) = 1; with none free, b falls back to
// the midpoint of the interval the margin inequalities allow.
func biasFromScores(scores, y, lambda []float64, c float64) float64 {
	const svEps = 1e-8
	var sum float64
	var free int
	lb, ub := math.Inf(-1), math.Inf(1)
	for i := range lambda {
		margin := y[i] - scores[i]
		switch {
		case lambda[i] > svEps && lambda[i] < c-svEps:
			sum += margin
			free++
		case lambda[i] <= svEps:
			if y[i] > 0 {
				lb = math.Max(lb, margin)
			} else {
				ub = math.Min(ub, margin)
			}
		default:
			if y[i] > 0 {
				ub = math.Min(ub, margin)
			} else {
				lb = math.Max(lb, margin)
			}
		}
	}
	switch {
	case free > 0:
		return sum / float64(free)
	case !math.IsInf(lb, -1) && !math.IsInf(ub, 1):
		return (lb + ub) / 2
	case !math.IsInf(lb, -1):
		return lb
	case !math.IsInf(ub, 1):
		return ub
	default:
		return 0
	}
}

package consensus

import (
	"context"
	"fmt"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/eval"
	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/mapreduce"
	"github.com/ppml-go/ppml/internal/qp"
)

// LinearModel is a trained linear classifier f(x) = wᵀx + b, produced by
// both the horizontal and the vertical linear schemes.
type LinearModel struct {
	W []float64
	B float64
}

// Decision returns the signed margin of x.
func (m *LinearModel) Decision(x []float64) float64 { return linalg.Dot(m.W, x) + m.B }

// Predict returns the class label, +1 or −1.
func (m *LinearModel) Predict(x []float64) float64 {
	if m.Decision(x) >= 0 {
		return 1
	}
	return -1
}

// TrainHorizontalLinear runs the Section IV-A scheme: M learners each hold a
// horizontal share (rows) of the training set, solve a local regularized SVM
// dual per iteration, and reach consensus on (w, b) through the secure
// Reducer. It returns the consensus model and the per-iteration history.
func TrainHorizontalLinear(ctx context.Context, parts []*dataset.Dataset, cfg Config) (*LinearModel, *History, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, nil, err
	}
	k, err := validateHorizontalParts(parts)
	if err != nil {
		return nil, nil, err
	}
	m := len(parts)

	if cfg.ChunkRows > 0 {
		// Minibatch mode: the same chunked engine the streamed trainer uses,
		// fed from in-memory sources.
		srcs := make([]dataset.RowSource, m)
		for i, p := range parts {
			srcs[i] = dataset.NewMemorySource(p)
		}
		return trainHLChunked(ctx, srcs, parts, cfg)
	}

	mappers := make([]mapreduce.IterativeMapper, m)
	for i, p := range parts {
		mp, err := newHLMapper(p, m, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("learner %d: %w", i, err)
		}
		mappers[i] = mp
	}
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

// hlMapper is one learner's Map() task for the horizontal linear scheme.
type hlMapper struct {
	m   int
	cfg Config
	eta float64 // M/(1+ρM)

	x *linalg.Matrix // N_m × k local rows (never leave this struct)
	y []float64

	q *linalg.Matrix // precomputed dual Hessian

	gamma []float64 // scaled dual for w = z
	beta  float64   // scaled dual for b = s

	prevW  []float64
	prevB  float64
	haveW  bool
	lambda []float64 // warm start across iterations (mapper-owned copy)

	// Round scratch, allocated once in newHLMapper so steady-state
	// Contribution calls are allocation-free. opts is prebuilt because every
	// qp.Option is a closure — constructing them per round would allocate.
	u, p, ylambda []float64
	qpScratch     qp.Scratch
	opts          []qp.Option

	lastIter int
	cached   []float64
}

func newHLMapper(p *dataset.Dataset, m int, cfg Config) (*hlMapper, error) {
	eta := float64(m) / (1 + cfg.Rho*float64(m))
	mp := &hlMapper{
		m: m, cfg: cfg, eta: eta,
		x: p.X, y: p.Y,
		gamma:    make([]float64, p.Features()),
		prevW:    make([]float64, p.Features()),
		lambda:   make([]float64, p.Len()),
		u:        make([]float64, p.Features()),
		p:        make([]float64, p.Len()),
		ylambda:  make([]float64, p.Len()),
		lastIter: -1,
	}
	// A zero warm start is the solvers' default start, so the warm-start
	// option can be installed unconditionally and fed by copying each
	// round's solution back into mp.lambda.
	mp.opts = []qp.Option{
		qp.WithTolerance(cfg.QPTol),
		qp.WithTelemetry(cfg.Telemetry),
		qp.WithScratch(&mp.qpScratch),
		qp.WithWarmStart(mp.lambda),
	}
	if cfg.PaperSplit && cfg.QPSecondOrder {
		mp.opts = append(mp.opts, qp.WithSecondOrderSelection())
	}
	// Dual Hessian: η·Y X Xᵀ Y (+ (1/ρ)·y yᵀ for the joint update).
	gram, err := linalg.MatMulT(p.X, p.X)
	if err != nil {
		return nil, err
	}
	for i := 0; i < gram.Rows; i++ {
		row := gram.Row(i)
		for j := range row {
			row[j] *= eta * p.Y[i] * p.Y[j]
			if !cfg.PaperSplit {
				row[j] += p.Y[i] * p.Y[j] / cfg.Rho
			}
		}
	}
	mp.q = gram
	return mp, nil
}

// Contribution implements mapreduce.IterativeMapper: one ADMM sub-step.
func (mp *hlMapper) Contribution(iter int, state []float64) ([]float64, error) {
	if iter == mp.lastIter && mp.cached != nil {
		return mp.cached, nil // idempotent under task retry
	}
	k := mp.x.Cols
	z := state[:k]
	s := state[k]

	// Scaled-dual update with the consensus just received: γ += w − z.
	if mp.haveW {
		for j := range mp.gamma {
			mp.gamma[j] += mp.prevW[j] - z[j]
		}
		mp.beta += mp.prevB - s
	}
	u := linalg.SubVec(z, mp.gamma, mp.u)
	t := s - mp.beta

	// Linear term: P_i = ηρ·y_i·x_iᵀu + t·y_i − 1 (the t·y term is folded
	// into the equality constraint in paper-split mode).
	n := mp.x.Rows
	p := mp.p
	for i := 0; i < n; i++ {
		p[i] = mp.eta*mp.cfg.Rho*mp.y[i]*linalg.Dot(mp.x.Row(i), u) - 1
		if !mp.cfg.PaperSplit {
			p[i] += t * mp.y[i]
		}
	}
	prob := qp.Problem{Q: mp.q, P: p, C: mp.cfg.C}
	var res *qp.Result
	var err error
	if mp.cfg.PaperSplit {
		// Equality constraint of eq. (12) with the lagged right-hand side.
		d := mp.cfg.Rho * (mp.prevB - s + mp.beta)
		res, err = qp.SolveEqualityBox(prob, mp.y, d, mp.opts...)
	} else {
		res, err = qp.SolveBox(prob, mp.opts...)
	}
	if err != nil {
		return nil, fmt.Errorf("consensus hl local solve: %w", err)
	}
	// res.Lambda aliases the qp scratch; copy it into the mapper-owned warm
	// start before the next solve zeroes the scratch.
	copy(mp.lambda, res.Lambda)

	// Primal recovery: w = η(XᵀYλ + ρu), b = t + (1/ρ)·yᵀλ.
	ylambda := mp.ylambda
	sumYL := 0.0
	for i := range ylambda {
		ylambda[i] = mp.y[i] * res.Lambda[i]
		sumYL += ylambda[i]
	}
	// prevW was consumed by the dual update above, so it can take this
	// round's w in place.
	w, err := mp.x.MulVecT(ylambda, mp.prevW)
	if err != nil {
		return nil, err
	}
	for j := range w {
		w[j] = mp.eta * (w[j] + mp.cfg.Rho*u[j])
	}
	b := t + sumYL/mp.cfg.Rho

	mp.prevW, mp.prevB, mp.haveW = w, b, true
	if mp.cached == nil {
		mp.cached = make([]float64, k+1)
	}
	contrib := mp.cached
	for j := range w {
		contrib[j] = w[j] + mp.gamma[j]
	}
	contrib[k] = b + mp.beta
	mp.lastIter = iter
	return contrib, nil
}

// meanConsensusReducer is the Reduce() side shared by both horizontal
// schemes: the next consensus state is the mean of the (securely summed)
// contributions, and convergence is judged on ‖Δstate‖².
type meanConsensusReducer struct {
	m    int
	tol  float64
	eval func(state []float64) (float64, error)
	tel  reducerGauges

	// live is the participant count of the upcoming round
	// (SetRoundParticipants, the distributed engine's roster size); 0 — the
	// local engine never calls it — means the full cohort.
	live int
	// weight is the total staleness weight W = Σ κ^{s_i} of the upcoming
	// round under bounded-staleness rounds (SetRoundWeight); 0 means
	// synchronous rounds, where the head count divides the mean instead.
	weight float64

	prev     []float64
	next     []float64 // broadcast buffer, reused every round
	deltaZSq []float64
	accuracy []float64
}

// SetRoundParticipants implements mapreduce.RosterReducer: the consensus mean
// divides by how many learners actually contributed, so a round folded over a
// partial roster averages the live iterates instead of shrinking them.
func (r *meanConsensusReducer) SetRoundParticipants(n int) { r.live = n }

// SetRoundWeight implements mapreduce.WeightedReducer: under bounded-
// staleness rounds the aggregate is Σ κ^{s_i}·c_i, so the consensus mean
// divides by the total weight instead of the head count.
func (r *meanConsensusReducer) SetRoundWeight(total float64) { r.weight = total }

// Combine implements mapreduce.IterativeReducer.
func (r *meanConsensusReducer) Combine(iter int, sum []float64) ([]float64, bool, error) {
	if cap(r.next) < len(sum) {
		r.next = make([]float64, len(sum))
	}
	div := float64(r.m)
	if r.live > 0 {
		div = float64(r.live)
	}
	if r.weight > 0 {
		div = r.weight
	}
	next := r.next[:len(sum)]
	for i, v := range sum {
		next[i] = v / div
	}
	var delta float64
	if r.prev == nil {
		delta = linalg.Norm2Sq(next)
		r.prev = linalg.CopyVec(next)
	} else {
		delta = linalg.Dist2Sq(next, r.prev)
		// Swap buffers: next becomes the reference, the old reference is
		// overwritten on the following round.
		r.prev, r.next = next, r.prev
	}
	r.deltaZSq = append(r.deltaZSq, delta)
	r.tel.deltaZSq.Set(delta)
	r.tel.journalRound(iter, delta)
	if r.eval != nil {
		acc, err := r.eval(next)
		if err != nil {
			return nil, false, fmt.Errorf("consensus: eval-set accuracy after round %d: %w", iter, err)
		}
		r.accuracy = append(r.accuracy, acc)
		r.tel.accuracy.Set(acc)
	}
	done := r.tol > 0 && delta < r.tol
	return next, done, nil
}

package consensus

import (
	"context"
	"fmt"
	"time"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/eval"
	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/mapreduce"
	"github.com/ppml-go/ppml/internal/qp"
	"github.com/ppml-go/ppml/internal/telemetry"
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
	if _, err := validateHorizontalParts(parts); err != nil {
		return nil, nil, err
	}
	srcs := make([]dataset.RowSource, len(parts))
	for i, p := range parts {
		srcs[i] = dataset.NewMemorySource(p)
	}
	return trainHL(ctx, srcs, cfg)
}

// TrainHorizontalLinearStreamed is TrainHorizontalLinear over out-of-core
// partitions: each learner reads its rows on demand through a RowSource
// (typically dataset.OpenDFS over a row-format file in the simulated HDFS)
// with a double-buffered prefetch, so the per-mapper working set is two chunk
// buffers regardless of partition size. Requires Config.ChunkRows > 0: one
// chunk would be the whole partition, twice.
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
	for i, src := range srcs {
		if src == nil || src.Rows() == 0 || src.Features() == 0 {
			return nil, nil, fmt.Errorf("%w: learner %d has no data", ErrBadPartition, i)
		}
		if k := srcs[0].Features(); src.Features() != k {
			return nil, nil, fmt.Errorf("%w: learner %d has %d features, learner 0 has %d",
				ErrBadPartition, i, src.Features(), k)
		}
	}
	return trainHL(ctx, srcs, cfg)
}

// trainHL is the engine behind both horizontal-linear trainers. srcs are
// validated by the caller.
func trainHL(ctx context.Context, srcs []dataset.RowSource, cfg Config) (*LinearModel, *History, error) {
	m := len(srcs)
	k := srcs[0].Features()
	if err := checkEvalSet(cfg, k); err != nil {
		return nil, nil, err
	}
	// Virtual cohort size M′ = Σ_m J_m: every chunk across every learner is
	// one consensus block, and all mappers must agree on η(M′).
	mprime := 0
	for _, src := range srcs {
		mprime += numChunksFor(src.Rows(), cfg.ChunkRows)
	}
	mappers := make([]mapreduce.IterativeMapper, 0, m)
	defer func() {
		for _, mp := range mappers {
			mp.(*hlMapper).close()
		}
	}()
	for i, src := range srcs {
		mp, err := newHLMapper(src, i, mprime, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("learner %d: %w", i, err)
		}
		mappers = append(mappers, mp)
	}
	// One model for the job, pointed at each probed state: the probe scores
	// every round, and a model built per call would escape every round.
	var model LinearModel
	final, h, err := trainMean(ctx, cfg, "hl", mappers, k+1, func(state []float64) (float64, error) {
		model.W, model.B = state[:k], state[k]
		return eval.ClassifierAccuracy(&model, cfg.EvalSet)
	})
	if err != nil {
		return nil, nil, err
	}
	return &LinearModel{W: linalg.CopyVec(final[:k]), B: final[k]}, h, nil
}

// trainMean runs the job the horizontal schemes share: every learner
// contributes a dim-vector, the Reducer's next state is their mean
// (meanConsensusReducer), and probe scores a state on cfg.EvalSet when there is
// one. It returns the final state with the per-round history.
func trainMean(ctx context.Context, cfg Config, scheme string, mappers []mapreduce.IterativeMapper, dim int, probe func(state []float64) (float64, error)) ([]float64, *History, error) {
	red := &meanConsensusReducer{rounds: newRoundLog(cfg, scheme)}
	if cfg.EvalSet != nil {
		red.rounds.probe = func() (float64, error) { return probe(red.prev) }
	}
	job := mapreduce.IterativeJob{
		Mappers:         mappers,
		Reducer:         red,
		InitialState:    make([]float64, dim),
		ContributionDim: dim,
		MaxIterations:   cfg.MaxIterations,
	}
	res, h, err := runJob(ctx, cfg, job)
	if err != nil {
		return nil, nil, err
	}
	h.DeltaZSq, h.Accuracy = red.rounds.deltaZSq, red.rounds.accuracy
	return res.FinalState, h, nil
}

// hlMapper is one learner's Map() task for the horizontal linear scheme: per
// round it solves the HL dual over the scheduled chunk of its rows on behalf
// of that chunk's virtual learner (see virtualLearners). Rows arrive through
// a dataset.Prefetcher — views of an in-memory partition, double-buffered
// decoded copies of a dfs-streamed one — and never leave this struct.
type hlMapper struct {
	cfg Config
	eta float64 // M′/(1+ρM′), M′ the virtual cohort size

	pf    *dataset.Prefetcher
	sched *chunkSchedule
	vl    virtualLearners

	// Round scratch sized to the largest chunk, so steady-state rounds
	// allocate nothing once every chunk has been visited.
	p        []float64 // the QP's linear term, then Yλ
	solve    localSolve
	chunkDur *telemetry.Histogram
}

// newHLMapper builds the Map() task for learner id. mprime is the virtual
// cohort size M′ = Σ_m J_m, shared by every mapper so their η agree.
func newHLMapper(src dataset.RowSource, id, mprime int, cfg Config) (*hlMapper, error) {
	n, k := src.Rows(), src.Features()
	if n == 0 || k == 0 {
		return nil, fmt.Errorf("%w: learner %d has no data", ErrBadPartition, id)
	}
	sched := newChunkSchedule(n, cfg.ChunkRows, cfg.Seed, id)
	pf, err := dataset.NewPrefetcher(src, sched.chunkRows, cfg.Telemetry)
	if err != nil {
		return nil, err
	}
	mp := &hlMapper{
		cfg: cfg, eta: float64(mprime) / (1 + float64(cfg.Rho*float64(mprime))),
		pf: pf, sched: sched, vl: newVirtualLearners(sched.numChunks, k),
		p:        make([]float64, sched.chunkRows),
		chunkDur: cfg.Telemetry.Histogram(metricChunkSeconds, telemetry.DurationBuckets),
	}
	mp.solve.init(k+1, cfg.Telemetry)
	return mp, nil
}

// close stops the mapper's background prefetch reader, if it has one.
func (mp *hlMapper) close() { mp.pf.Close() }

// Contribution implements mapreduce.IterativeMapper: one chunk ADMM sub-step.
func (mp *hlMapper) Contribution(iter int, state []float64) ([]float64, error) {
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
	x, y := ch.X, ch.Y
	for i, yv := range y {
		// Streamed rows cannot be validated up front; reject bad labels at
		// first use without echoing the value (it is a training-data datum).
		if yv != 1 && yv != -1 {
			return nil, fmt.Errorf("%w: row %d label is not ±1", ErrBadPartition, lo+i)
		}
	}
	rho := mp.cfg.Rho

	// Scaled-dual update with the consensus just received, then the linear
	// term P_i = ηρ·y_i·x_iᵀu + t·y_i − 1.
	c, u, t := mp.vl.open(idx, len(y), state)
	p := mp.p[:len(y)]
	for i := range p {
		p[i] = float64(mp.eta*rho*y[i]*linalg.Dot(x.Row(i), u)) - 1 + float64(t*y[i])
	}
	// The joint (w, b) update's dual: the bias eliminated, its Hessian is
	// Y(η·XXᵀ + (1/ρ)·11ᵀ)Y under the box alone. The solve works on the rows
	// and never forms it.
	lp := qp.LinearProblem{X: x, Y: y, Eta: mp.eta, Sigma: 1 / rho, P: p, C: mp.cfg.C}
	res, err := qp.SolveLinearBox(lp, mp.solve.options(state, c.lambda)...)
	if err != nil {
		return nil, fmt.Errorf("consensus hl local solve: %w", err)
	}

	// Primal recovery: w = η(XᵀYλ + ρu), b = t + (1/ρ)·yᵀλ. The solve is done
	// with p and the dual update with c.prev, so they take Yλ and w in place.
	ylambda := p
	sumYL := 0.0
	for i := range ylambda {
		ylambda[i] = float64(y[i] * res.Lambda[i])
		sumYL += ylambda[i]
	}
	w, err := x.MulVecT(ylambda, c.prev)
	if err != nil {
		return nil, err
	}
	for j := range w {
		w[j] = mp.eta * (w[j] + float64(rho*u[j]))
	}
	contrib := mp.vl.commit(c, res.Lambda, t+sumYL/rho)
	mp.chunkDur.Observe(time.Since(start).Seconds())
	return contrib, nil
}

// meanConsensusReducer is the Reduce() side shared by both horizontal
// schemes: the next consensus state is the mean of the (securely summed)
// contributions, and convergence is judged on ‖Δstate‖².
type meanConsensusReducer struct {
	rounds roundLog // its probe scores prev, the state just folded

	// weight is what the upcoming round's sum adds up to (SetRoundWeight):
	// the number of learners folded. It is the only cohort size the reducer knows.
	weight float64

	prev []float64
	next []float64 // broadcast buffer, reused every round
}

// SetRoundWeight implements mapreduce.WeightedReducer: the consensus mean
// divides by what was actually folded, so a round over a partial roster
// averages the live iterates instead of shrinking them.
func (r *meanConsensusReducer) SetRoundWeight(total float64) { r.weight = total }

// Combine implements mapreduce.IterativeReducer.
func (r *meanConsensusReducer) Combine(iter int, sum []float64) ([]float64, bool, error) {
	if cap(r.next) < len(sum) {
		r.next = make([]float64, len(sum))
	}
	next := r.next[:len(sum)]
	for i, v := range sum {
		next[i] = v / r.weight
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
	done, err := r.rounds.record(iter, delta)
	if err != nil {
		return nil, false, err
	}
	return next, done, nil
}

package consensus

import (
	"context"
	"fmt"
	"time"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/kernel"
	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/mapreduce"
	"github.com/ppml-go/ppml/internal/telemetry"
)

// KernelVerticalModel is the nonlinear vertical-consensus classifier:
// additive kernel expansions over each learner's feature block,
// f(x) = Σ_m Σ_i Alpha[m][i]·K(x|cols_m, X_m[i]) + B. Section IV-C calls
// this a "straightforward modification" because the consensus variable z is
// the N-vector of scores, independent of the kernels used.
type KernelVerticalModel struct {
	Kernel kernel.Kernel
	// Cols[m] are the global feature columns learner m owns.
	Cols [][]int
	// SupportX[m] holds learner m's feature block of the training rows.
	SupportX []*linalg.Matrix
	// Alpha[m] are learner m's expansion coefficients over the N rows.
	Alpha [][]float64
	B     float64
}

// Decision returns the additive discriminant for a full-width sample x:
// Decisions on x viewed as one row, so it has the bits of x's row in any
// batch. It panics with the linalg.ErrShape error Decisions returns when x
// is not as wide as the column blocks together.
func (mod *KernelVerticalModel) Decision(x []float64) float64 {
	return decisionOfRow(mod.Decisions, x)
}

// Decisions scores every row of x: dst[i] is the discriminant of the
// full-width row i of x, whose width must be the column blocks' total (the
// blocks of a trained model cover every feature once). Each learner's column
// block of x is gathered once per call into linalg's scratch pool, one buffer
// reused across learners, and scored on the tiled kernel path
// (kernel.Accumulate). A nil dst is allocated; otherwise it must hold x.Rows
// values, which are overwritten.
func (mod *KernelVerticalModel) Decisions(x *linalg.Matrix, dst []float64) ([]float64, error) {
	if dst == nil {
		dst = make([]float64, x.Rows)
	} else if len(dst) != x.Rows {
		return nil, fmt.Errorf("consensus vk decisions: %w: dst length %d for %d samples", linalg.ErrShape, len(dst), x.Rows)
	}
	widest, width := 0, 0
	for _, cols := range mod.Cols {
		widest = max(widest, len(cols))
		width += len(cols)
	}
	if x.Cols != width {
		return nil, fmt.Errorf("consensus vk decisions: %w: samples have %d features, the column blocks %d", linalg.ErrShape, x.Cols, width)
	}
	for i := range dst {
		dst[i] = mod.B
	}
	block := linalg.GrabScratch(x.Rows, widest) // reshaped to each learner's block in turn
	defer linalg.ReleaseScratch(block)
	for m, cols := range mod.Cols {
		for _, c := range cols {
			if c < 0 || c >= x.Cols {
				return nil, fmt.Errorf("consensus vk decisions: %w: learner %d owns column %d, samples have %d", linalg.ErrShape, m, c, x.Cols)
			}
		}
		block.Cols, block.Data = len(cols), block.Data[:x.Rows*len(cols)]
		for i := 0; i < x.Rows; i++ {
			xi, bi := x.Row(i), block.Row(i)
			for j, c := range cols {
				bi[j] = xi[c]
			}
		}
		if err := kernel.Accumulate(mod.Kernel, block, mod.SupportX[m], mod.Alpha[m], dst); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// Predict returns the class label, +1 or −1.
func (mod *KernelVerticalModel) Predict(x []float64) float64 {
	if mod.Decision(x) >= 0 {
		return 1
	}
	return -1
}

// TrainVerticalKernel runs the kernelized Section IV-C scheme: each
// learner's ridge sub-problem is solved in its block-feature RKHS via the
// Woodbury identity, Φ_m w_m = ρK_m(I + ρK_m)⁻¹q_m, so only kernel
// evaluations over the learner's own columns are needed. The Reducer is
// identical to the linear case because z has a fixed size N regardless of
// the kernels.
func TrainVerticalKernel(ctx context.Context, parts []*dataset.Dataset, cols [][]int, cfg Config) (*KernelVerticalModel, *History, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, nil, err
	}
	if err := kernel.Validate(cfg.Kernel); err != nil {
		return nil, nil, fmt.Errorf("%w: kernel scheme needs a valid Config.Kernel: %v", ErrBadConfig, err)
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
	model := &KernelVerticalModel{
		Kernel:   cfg.Kernel,
		Cols:     cols,
		SupportX: make([]*linalg.Matrix, len(parts)),
		Alpha:    make([][]float64, len(parts)),
	}
	for i, p := range parts {
		mp, err := newVKMapper(p, cols[i], cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("learner %d: %w", i, err)
		}
		mappers[i], partials[i] = mp, mp.partial
		// The mapper updates α in place, so once the job has drained the
		// mappers the model holds their final coefficients.
		model.SupportX[i], model.Alpha[i] = mp.x, mp.alpha
	}
	b, h, err := trainVertical(ctx, parts, cfg, mappers, partials)
	if err != nil {
		return nil, nil, err
	}
	model.B = b
	return model, h, nil
}

// vkMapper is one learner's Map() task for the vertical kernel scheme. Only
// the scheduled chunk's expansion coefficients α_c change per round, and only
// the chunk's rows of the scores K·α are read and reported. The chunk's ridge
// solve yields its own scores: with y = (I + ρs·K_cc)⁻¹q and α_c = ρs·y,
// K_cc·α_c = q − y, so (K·α)|_c = q − y + off_c where off_c =
// K(X_c, X_¬c)·α_¬c, which no round on chunk c moves. The mapper therefore
// holds the factor of the chunk's n_c × n_c block and O(N) vectors, and
// never a kernel strip.
type vkMapper struct {
	cfg   Config
	x     *linalg.Matrix // N × k_m block (private)
	sched *chunkSchedule

	alpha []float64 // expansion coefficients over all N rows

	// ch factors I + ρs·K_cc in place in reg, kw holds (K·α)|_c and off
	// holds off_c for chunk built: all are recomputed when the schedule moves
	// to another chunk and stand otherwise, so with one chunk the Gram is
	// evaluated and factored once and each round's K·α carries into the next.
	reg   *linalg.Matrix
	ch    *linalg.Cholesky
	kw    []float64
	off   []float64
	built int

	q        []float64 // round scratch
	chunkDur *telemetry.Histogram
	cached   []float64 // the contribution, over all N coordinates

	// With an eval set: the probe's share, K(X_e|cols, X)·α, scored from
	// evalX, the learner's columns of the eval rows (E × k_m).
	partial *partialDecisions
	evalX   *linalg.Matrix
}

// newVKMapper builds the Map() task of the learner holding p, the global
// feature columns cols of every record.
func newVKMapper(p *dataset.Dataset, cols []int, cfg Config) (*vkMapper, error) {
	sched := newChunkSchedule(p.Len(), cfg.ChunkRows, cfg.Seed, sharedChunkStream)
	mp := &vkMapper{
		cfg:      cfg,
		x:        p.X,
		sched:    sched,
		alpha:    make([]float64, p.Len()),
		reg:      linalg.NewMatrix(sched.chunkRows, sched.chunkRows), // sized for the longest chunk
		kw:       make([]float64, sched.chunkRows),
		off:      make([]float64, sched.chunkRows),
		q:        make([]float64, sched.chunkRows),
		chunkDur: cfg.Telemetry.Histogram(metricChunkSeconds, telemetry.DurationBuckets),
		cached:   make([]float64, p.Len()),
		partial:  newPartials(cfg),
	}
	if mp.partial != nil {
		mp.evalX = cfg.EvalSet.SelectFeatures(cols).X
	}
	// The first chunk's factor is built here rather than in round 0 (see
	// newHKMapper).
	idx, lo, hi := sched.chunk(0)
	if err := mp.build(lo, hi); err != nil {
		return nil, err
	}
	mp.built = idx
	return mp, nil
}

// build makes rows [lo, hi) the mapper's chunk c. It evaluates K_cc straight
// into the factor's storage (the self-Gram path), sets kw = (K·α)|_c by
// scoring the chunk's rows against all of X without holding the strip, and
// off_c = kw − K_cc·α_c, then factors I + ρs·K_cc in place, so a learner
// holds L and nothing else of size n_c².
func (mp *vkMapper) build(lo, hi int) error {
	nc := hi - lo
	rhoS := mp.cfg.Rho * mp.sched.weight(nc)
	xc := rowView(mp.x, lo, hi)
	var err error
	if mp.reg, err = kernel.MatrixInto(mp.cfg.Kernel, xc, xc, mp.reg); err != nil {
		return err
	}
	kw, off := mp.kw[:nc], mp.off[:nc]
	linalg.Zero(kw)
	if err := kernel.Accumulate(mp.cfg.Kernel, xc, mp.x, mp.alpha, kw); err != nil {
		return err
	}
	if _, err := mp.reg.MulVec(mp.alpha[lo:hi], off); err != nil {
		return err
	}
	linalg.SubVec(kw, off, off)
	mp.reg.Scale(rhoS)
	if err := mp.reg.AddScaledIdentity(1); err != nil {
		return err
	}
	if mp.ch, err = linalg.FactorizeCholeskyInPlace(mp.reg); err != nil {
		return fmt.Errorf("consensus vk: (I + ρK) not SPD: %w", err)
	}
	return nil
}

// Contribution implements mapreduce.IterativeMapper: the kernelized chunk
// update α_c = ρs·y with y = (I + ρs·K_cc)⁻¹q_c, q_c = (K·α)|_c + state|_c and
// s the schedule's chunk weight, contributing the refreshed
// (K·α)|_c = Φ_m w_m = q_c − y + off_c on the chunk's coordinates and zero
// elsewhere: O(n_c) work past the solve.
func (mp *vkMapper) Contribution(iter int, state []float64) ([]float64, error) {
	n := mp.x.Rows
	if len(state) != n {
		return nil, fmt.Errorf("%w: state of %d values for %d records", ErrBadPartition, len(state), n)
	}
	start := time.Now()
	idx, lo, hi := mp.sched.chunk(iter)
	nc := hi - lo
	rhoS := mp.cfg.Rho * mp.sched.weight(nc)
	if idx != mp.built {
		if err := mp.build(lo, hi); err != nil {
			return nil, err
		}
		mp.built = idx
	}

	// All vectors land in mapper-owned buffers (see vlMapper.Contribution).
	kw, off := mp.kw[:nc], mp.off[:nc]
	q := linalg.AddVec(kw, state[lo:hi], mp.q[:nc])
	alpha, err := mp.ch.SolveVec(q, mp.alpha[lo:hi])
	if err != nil {
		return nil, err
	}
	for i, y := range alpha {
		kw[i] = q[i] - y + off[i]
	}
	linalg.Scale(rhoS, alpha)
	linalg.Zero(mp.cached[:lo])
	copy(mp.cached[lo:hi], kw)
	linalg.Zero(mp.cached[hi:])
	if mp.partial != nil {
		linalg.Zero(mp.partial.next)
		if err := kernel.Accumulate(mp.cfg.Kernel, mp.evalX, mp.x, mp.alpha, mp.partial.next); err != nil {
			return nil, err
		}
		mp.partial.swap()
	}
	mp.chunkDur.Observe(time.Since(start).Seconds())
	return mp.cached, nil
}

package consensus

import (
	"context"
	"fmt"
	"time"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/kernel"
	"github.com/ppml-go/ppml/internal/linalg"
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

// Decision returns the additive discriminant for a full-width sample x.
func (mod *KernelVerticalModel) Decision(x []float64) float64 {
	s := mod.B
	var block []float64 // one gather buffer, resliced per learner
	for m := range mod.Alpha {
		block = block[:0]
		for _, c := range mod.Cols[m] {
			block = append(block, x[c])
		}
		sx := mod.SupportX[m]
		for i, a := range mod.Alpha[m] {
			if a != 0 {
				s += a * mod.Kernel.Eval(sx.Row(i), block)
			}
		}
	}
	return s
}

// Decisions is the batch form of Decision: dst[i] is the discriminant of the
// full-width row i of x. Each learner's column block of x is gathered once
// per call into a buffer reused across learners and scored on the tiled
// kernel path (kernel.Accumulate). A nil dst is allocated; otherwise it must
// hold x.Rows values, which are overwritten. Values agree with Decision to
// rounding, not bit for bit: the dots and the order of the sum differ, the
// kernel transform (RBF's exp included) is the same function on both sides
// (see kernel.Accumulate).
func (mod *KernelVerticalModel) Decisions(x *linalg.Matrix, dst []float64) ([]float64, error) {
	if dst == nil {
		dst = make([]float64, x.Rows)
	} else if len(dst) != x.Rows {
		return nil, fmt.Errorf("consensus vk decisions: %w: dst length %d for %d samples", linalg.ErrShape, len(dst), x.Rows)
	}
	for i := range dst {
		dst[i] = mod.B
	}
	widest := 0
	for _, cols := range mod.Cols {
		widest = max(widest, len(cols))
	}
	buf := make([]float64, x.Rows*widest)
	for m, cols := range mod.Cols {
		for _, c := range cols {
			if c < 0 || c >= x.Cols {
				return nil, fmt.Errorf("consensus vk decisions: %w: learner %d owns column %d, samples have %d", linalg.ErrShape, m, c, x.Cols)
			}
		}
		block := linalg.Matrix{Rows: x.Rows, Cols: len(cols), Data: buf[:x.Rows*len(cols)]}
		for i := 0; i < x.Rows; i++ {
			xi, bi := x.Row(i), block.Row(i)
			for j, c := range cols {
				bi[j] = xi[c]
			}
		}
		if err := kernel.Accumulate(mod.Kernel, &block, mod.SupportX[m], mod.Alpha[m], dst); err != nil {
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
	rows, _, err := validateVerticalParts(parts, cols)
	if err != nil {
		return nil, nil, err
	}
	if err := checkVerticalChunkConfig(cfg, rows); err != nil {
		return nil, nil, err
	}
	mappers := make([]*vkMapper, len(parts))
	for i, p := range parts {
		if mappers[i], err = newVKMapper(p, cfg); err != nil {
			return nil, nil, fmt.Errorf("learner %d: %w", i, err)
		}
	}
	return trainVertical(ctx, parts, cfg, mappers, func(b float64) *KernelVerticalModel {
		model := &KernelVerticalModel{
			Kernel:   cfg.Kernel,
			Cols:     cols,
			SupportX: make([]*linalg.Matrix, len(mappers)),
			Alpha:    make([][]float64, len(mappers)),
			B:        b,
		}
		for i, mp := range mappers {
			model.SupportX[i] = mp.x
			alpha := make([]float64, rows)
			mp.probe.with(func(v []float64) { copy(alpha, v) })
			model.Alpha[i] = alpha
		}
		return model
	})
}

// vkMapper is one learner's Map() task for the vertical kernel scheme. Only
// the scheduled chunk's expansion coefficients α_c change per round, and only
// the chunk's rows of the scores K·α are read and reported, so the mapper
// works from the kernel strip K(X_c, X) — the whole block-feature Gram with
// one chunk, n_c × N otherwise — and never materializes more than that.
type vkMapper struct {
	cfg   Config
	x     *linalg.Matrix // N × k_m block (private)
	sched *chunkSchedule

	alpha []float64 // expansion coefficients over all N rows
	probe probeCopy // α as of the last completed Contribution

	// kcb is the strip K(X_c, X), ch factors I + ρs·K_cc and kw holds
	// (K·α)|_c for chunk built: all three are recomputed when the schedule
	// moves to another chunk and stand otherwise, so with one chunk the Gram
	// is evaluated and factored once and each round's K·α carries into the
	// next.
	kcb   *linalg.Matrix
	ch    *linalg.Cholesky
	kw    []float64
	built int

	q        []float64 // round scratch
	chunkDur *telemetry.Histogram

	lastIter int
	cached   []float64
}

func newVKMapper(p *dataset.Dataset, cfg Config) (*vkMapper, error) {
	sched := newChunkSchedule(p.Len(), cfg.ChunkRows, cfg.Seed, sharedChunkStream)
	mp := &vkMapper{
		cfg:      cfg,
		x:        p.X,
		sched:    sched,
		alpha:    make([]float64, p.Len()),
		probe:    probeCopy{v: make([]float64, p.Len())},
		kcb:      linalg.NewMatrix(sched.chunkRows, p.Len()),
		kw:       make([]float64, sched.chunkRows),
		q:        make([]float64, sched.chunkRows),
		chunkDur: cfg.Telemetry.Histogram(metricChunkSeconds, telemetry.DurationBuckets),
		lastIter: -1,
		cached:   make([]float64, p.Len()),
	}
	// The first chunk's strip and factor are built here rather than in round
	// 0 (see newHKMapper); α is zero, so kw = (K·α)|_c already holds.
	idx, lo, hi := sched.chunk(0)
	if err := mp.build(lo, hi); err != nil {
		return nil, err
	}
	mp.built = idx
	return mp, nil
}

// build evaluates the strip K(X_c, X) for rows [lo, hi) and factors
// I + ρs·K_cc, K_cc being the strip's columns [lo, hi). The regularized copy
// is factored in place and becomes the factor's storage, so a learner holds
// the strip and L and nothing else.
func (mp *vkMapper) build(lo, hi int) error {
	rhoS := mp.cfg.Rho * mp.sched.weight(hi-lo)
	var err error
	if mp.kcb, err = kernel.MatrixInto(mp.cfg.Kernel, rowView(mp.x, lo, hi), mp.x, mp.kcb); err != nil {
		return err
	}
	reg := linalg.NewMatrix(hi-lo, hi-lo)
	for i := 0; i < reg.Rows; i++ {
		copy(reg.Row(i), mp.kcb.Row(i)[lo:hi])
	}
	reg.Scale(rhoS)
	if err := reg.AddScaledIdentity(1); err != nil {
		return err
	}
	if mp.ch, err = linalg.FactorizeCholeskyInPlace(reg); err != nil {
		return fmt.Errorf("consensus vk: (I + ρK) not SPD: %w", err)
	}
	return nil
}

// Contribution implements mapreduce.IterativeMapper: the kernelized chunk
// update α_c = ρs(I + ρs·K_cc)⁻¹q_c with q_c = (K·α)|_c + state|_c and
// s the schedule's chunk weight, contributing the refreshed (K·α)|_c = Φ_m w_m on
// the chunk's coordinates and zero elsewhere.
func (mp *vkMapper) Contribution(iter int, state []float64) ([]float64, error) {
	if iter == mp.lastIter {
		return mp.cached, nil
	}
	n := mp.x.Rows
	if len(state) != n {
		return nil, fmt.Errorf("%w: state of %d values for %d records", ErrBadPartition, len(state), n)
	}
	start := time.Now()
	idx, lo, hi := mp.sched.chunk(iter)
	nc := hi - lo
	rhoS := mp.cfg.Rho * mp.sched.weight(nc)
	kw := mp.kw[:nc]
	if idx != mp.built {
		if err := mp.build(lo, hi); err != nil {
			return nil, err
		}
		if _, err := mp.kcb.MulVec(mp.alpha, kw); err != nil {
			return nil, err
		}
		mp.built = idx
	}

	// All vectors land in mapper-owned buffers (see vlMapper.Contribution).
	q := linalg.AddVec(kw, state[lo:hi], mp.q[:nc])
	alpha, err := mp.ch.SolveVec(q, mp.alpha[lo:hi])
	if err != nil {
		return nil, err
	}
	linalg.Scale(rhoS, alpha)
	if _, err := mp.kcb.MulVec(mp.alpha, kw); err != nil {
		return nil, err
	}
	linalg.Zero(mp.cached[:lo])
	copy(mp.cached[lo:hi], kw)
	linalg.Zero(mp.cached[hi:])
	mp.probe.with(func(v []float64) { copy(v[lo:hi], alpha) })
	mp.lastIter = iter
	mp.chunkDur.Observe(time.Since(start).Seconds())
	return mp.cached, nil
}

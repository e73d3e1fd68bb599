package consensus

import (
	"context"
	"fmt"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/eval"
	"github.com/ppml-go/ppml/internal/kernel"
	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/mapreduce"
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
// rounding, not bit for bit.
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
	if cfg.Kernel == nil {
		return nil, nil, fmt.Errorf("%w: kernel scheme needs Config.Kernel", ErrBadConfig)
	}
	rows, _, err := validateVerticalParts(parts, cols)
	if err != nil {
		return nil, nil, err
	}
	if err := checkVerticalChunkConfig(cfg); err != nil {
		return nil, nil, err
	}
	m := len(parts)

	mappers := make([]mapreduce.IterativeMapper, m)
	vkMappers := make([]vkBlock, m)
	for i, p := range parts {
		var mp vkBlock
		var err error
		if cfg.ChunkRows > 0 {
			mp, err = newVKChunkMapper(p, cfg)
		} else {
			mp, err = newVKMapper(p, cfg)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("learner %d: %w", i, err)
		}
		mappers[i] = mp
		vkMappers[i] = mp
	}
	assemble := func(b float64) *KernelVerticalModel {
		model := &KernelVerticalModel{
			Kernel:   cfg.Kernel,
			Cols:     cols,
			SupportX: make([]*linalg.Matrix, m),
			Alpha:    make([][]float64, m),
			B:        b,
		}
		for i, mp := range vkMappers {
			model.SupportX[i] = mp.support()
			model.Alpha[i] = linalg.CopyVec(mp.coefficients())
		}
		return model
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

// vkBlock is what model assembly needs from a vertical-kernel Map() task —
// the full-batch and the minibatch mappers both provide it.
type vkBlock interface {
	mapreduce.IterativeMapper
	// support is the learner's private feature block of the training rows.
	support() *linalg.Matrix
	// coefficients are the learner's current expansion coefficients.
	coefficients() []float64
}

// vkMapper is one learner's Map() task for the vertical kernel scheme.
type vkMapper struct {
	cfg Config
	x   *linalg.Matrix   // N × k_m block (private)
	km  *linalg.Matrix   // K(X_m, X_m) over the block features
	ch  *linalg.Cholesky // factor of (I + ρK_m), constant across iterations

	alpha  []float64 // ρ(I + ρK_m)⁻¹q — the expansion coefficients
	prevKw []float64 // Φ_m w_m = K_m·alpha at the previous iterate
	q      []float64 // residual-target scratch, reused every round

	lastIter int
	cached   []float64
}

func (mp *vkMapper) support() *linalg.Matrix { return mp.x }
func (mp *vkMapper) coefficients() []float64 { return mp.alpha }

func newVKMapper(p *dataset.Dataset, cfg Config) (*vkMapper, error) {
	km := kernel.GramMatrix(cfg.Kernel, p.X)
	reg := km.Clone()
	reg.Scale(cfg.Rho)
	if err := reg.AddScaledIdentity(1); err != nil {
		return nil, err
	}
	ch, err := linalg.FactorizeCholesky(reg)
	if err != nil {
		return nil, fmt.Errorf("consensus vk: (I + ρK) not SPD: %w", err)
	}
	return &vkMapper{
		cfg:      cfg,
		x:        p.X,
		km:       km,
		ch:       ch,
		alpha:    make([]float64, p.Len()),
		prevKw:   make([]float64, p.Len()),
		lastIter: -1,
	}, nil
}

// Contribution implements mapreduce.IterativeMapper: the kernelized
// w_m-update, contributing Φ_m w_m = K_m·α with α = ρ(I + ρK_m)⁻¹q.
func (mp *vkMapper) Contribution(iter int, state []float64) ([]float64, error) {
	if iter == mp.lastIter && mp.cached != nil {
		return mp.cached, nil
	}
	if len(state) != mp.x.Rows {
		return nil, fmt.Errorf("%w: state of %d values for %d records", ErrBadPartition, len(state), mp.x.Rows)
	}
	// All vectors land in mapper-owned buffers (see vlMapper.Contribution):
	// steady-state rounds allocate nothing.
	mp.q = linalg.AddVec(mp.prevKw, state, mp.q)
	alpha, err := mp.ch.SolveVec(mp.q, mp.alpha)
	if err != nil {
		return nil, err
	}
	linalg.Scale(mp.cfg.Rho, alpha)
	mp.alpha = alpha
	kw, err := mp.km.MulVec(alpha, mp.prevKw)
	if err != nil {
		return nil, err
	}
	mp.prevKw = kw
	if mp.cached == nil {
		mp.cached = make([]float64, len(kw))
	}
	copy(mp.cached, kw)
	mp.lastIter = iter
	return mp.cached, nil
}

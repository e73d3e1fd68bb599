package consensus

import (
	"context"
	"fmt"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/eval"
	"github.com/ppml-go/ppml/internal/kernel"
	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/mapreduce"
	"github.com/ppml-go/ppml/internal/qp"
)

// KernelHorizontalModel is the nonlinear consensus classifier of Section
// IV-B. Each learner contributes a discriminant built from its own support
// expansion plus the shared landmark expansion; Predict averages the
// learners' decision values (the paper evaluates per-learner f_m, which
// PredictAt exposes).
type KernelHorizontalModel struct {
	Kernel    kernel.Kernel
	Landmarks *linalg.Matrix // X_g, shared by all learners

	// Per-learner expansions: f_m(x) = Σ_i CoefX[m][i]·K(x, X_m[i]) +
	// Σ_j CoefG[m][j]·K(x, X_g[j]) + B[m].
	SupportX []*linalg.Matrix
	CoefX    [][]float64
	CoefG    [][]float64
	B        []float64
}

// DecisionAt returns learner m's discriminant f_m(x) (eq. 25).
func (mod *KernelHorizontalModel) DecisionAt(m int, x []float64) float64 {
	s := mod.B[m]
	sx := mod.SupportX[m]
	for i, c := range mod.CoefX[m] {
		if c != 0 {
			s += c * mod.Kernel.Eval(sx.Row(i), x)
		}
	}
	for j, c := range mod.CoefG[m] {
		s += c * mod.Kernel.Eval(mod.Landmarks.Row(j), x)
	}
	return s
}

// PredictAt returns learner m's label for x.
func (mod *KernelHorizontalModel) PredictAt(m int, x []float64) float64 {
	if mod.DecisionAt(m, x) >= 0 {
		return 1
	}
	return -1
}

// Decision returns the mean discriminant across learners.
func (mod *KernelHorizontalModel) Decision(x []float64) float64 {
	var s float64
	for m := range mod.B {
		s += mod.DecisionAt(m, x)
	}
	return s / float64(len(mod.B))
}

// Decisions is the batch form of Decision: dst[i] is the mean discriminant of
// row i of x, computed on the tiled kernel path (kernel.Accumulate) without
// retaining a kernel matrix. A nil dst is allocated; otherwise it must hold
// x.Rows values, which are overwritten. The learners' landmark coefficients
// are summed first, so the shared landmarks are scored once. Values agree
// with Decision to rounding (see kernel.Accumulate), not bit for bit.
func (mod *KernelHorizontalModel) Decisions(x *linalg.Matrix, dst []float64) ([]float64, error) {
	if dst == nil {
		dst = make([]float64, x.Rows)
	} else if len(dst) != x.Rows {
		return nil, fmt.Errorf("consensus hk decisions: %w: dst length %d for %d samples", linalg.ErrShape, len(dst), x.Rows)
	}
	linalg.Zero(dst)
	var b float64
	coefG := make([]float64, mod.Landmarks.Rows)
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
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, nil, err
	}
	if cfg.Kernel == nil {
		return nil, nil, fmt.Errorf("%w: kernel scheme needs Config.Kernel", ErrBadConfig)
	}
	k, err := validateHorizontalParts(parts)
	if err != nil {
		return nil, nil, err
	}
	m := len(parts)
	l := cfg.Landmarks

	// Public landmark points X_g: standard Gaussian rows match standardized
	// training data; any X_g with non-singular K(X_g, X_g) works (Lemma 4.2
	// discussion). They contain no private information by construction; see
	// Config.landmarkRand for the determinism contract.
	rng := cfg.landmarkRand()
	xg := linalg.NewMatrix(l, k)
	for i := range xg.Data {
		xg.Data[i] = rng.NormFloat64()
	}

	// In minibatch mode every chunk is a virtual learner (see hlChunkMapper),
	// so the shared landmark matrices fold the virtual cohort size M′ instead
	// of the real learner count.
	meff := m
	if cfg.ChunkRows > 0 {
		meff = 0
		for _, p := range parts {
			meff += numChunksFor(p.Len(), cfg.ChunkRows)
		}
	}
	kgg := kernel.GramMatrix(cfg.Kernel, xg)
	kgScaled := kgg.Clone()
	kgScaled.Scale(cfg.Rho * float64(meff))
	if err := kgScaled.AddScaledIdentity(1); err != nil {
		return nil, nil, err
	}
	ch, err := linalg.FactorizeCholesky(kgScaled)
	if err != nil {
		return nil, nil, fmt.Errorf("consensus hk: landmark matrix not SPD (raise Landmarks diversity or lower ρ): %w", err)
	}
	kgInv, err := ch.Inverse() // (I + ρM·K_gg)⁻¹, reused by every learner
	if err != nil {
		return nil, nil, err
	}

	mappers := make([]mapreduce.IterativeMapper, m)
	hkMappers := make([]hkLearner, m)
	if cfg.ChunkRows > 0 {
		// GPGᵀ is data-independent, so in minibatch mode it is computed once
		// and shared by every learner's chunk mapper.
		gpg, err := buildGPG(meff, cfg.Rho, kgg, kgInv)
		if err != nil {
			return nil, nil, err
		}
		for i, p := range parts {
			mp, err := newHKChunkMapper(p, i, meff, cfg, xg, kgg, kgInv, gpg)
			if err != nil {
				return nil, nil, fmt.Errorf("learner %d: %w", i, err)
			}
			mappers[i] = mp
			hkMappers[i] = mp
		}
	} else {
		for i, p := range parts {
			mp, err := newHKMapper(p, m, cfg, xg, kgg, kgInv)
			if err != nil {
				return nil, nil, fmt.Errorf("learner %d: %w", i, err)
			}
			mappers[i] = mp
			hkMappers[i] = mp
		}
	}
	red := &meanConsensusReducer{
		m:        m,
		tol:      cfg.Tol,
		tel:      newReducerGauges(cfg.Telemetry, "hk"),
		deltaZSq: make([]float64, 0, cfg.MaxIterations),
		accuracy: make([]float64, 0, cfg.MaxIterations),
	}
	if cfg.EvalSet != nil {
		red.eval = func(state []float64) (float64, error) {
			model, err := assembleHKModel(cfg, xg, hkMappers, state)
			if err != nil {
				return 0, err
			}
			return eval.ClassifierAccuracy(model, cfg.EvalSet)
		}
	}

	job := mapreduce.IterativeJob{
		Mappers:         mappers,
		Reducer:         red,
		InitialState:    make([]float64, l+1),
		ContributionDim: l + 1,
		MaxIterations:   cfg.MaxIterations,
	}
	res, h, err := runJob(ctx, cfg, job, parts)
	if err != nil {
		return nil, nil, err
	}
	h.DeltaZSq = red.deltaZSq
	h.Accuracy = red.accuracy
	model, err := assembleHKModel(cfg, xg, hkMappers, res.FinalState)
	if err != nil {
		return nil, nil, err
	}
	return model, h, nil
}

// hkLearner is what model assembly needs from a horizontal-kernel Map() task
// — the full-batch and the minibatch mappers both provide it.
type hkLearner interface {
	mapreduce.IterativeMapper
	// expansion converts the mapper's dual state plus the consensus z into
	// explicit kernel-expansion coefficients (eq. 25).
	expansion(z []float64) (coefX, coefG []float64, b float64, err error)
	// support is the mapper's private row block the expansion refers to.
	support() *linalg.Matrix
}

// buildGPG computes GPGᵀ = M[K_gg − ρM·K_gg·K⁻¹_g·K_gg].
func buildGPG(m int, rho float64, kgg, kgInv *linalg.Matrix) (*linalg.Matrix, error) {
	kgKgInv, err := linalg.MatMul(kgg, kgInv)
	if err != nil {
		return nil, err
	}
	kgCorr, err := linalg.MatMul(kgKgInv, kgg)
	if err != nil {
		return nil, err
	}
	rhoM := rho * float64(m)
	gpg := kgg.Clone()
	for i := range gpg.Data {
		gpg.Data[i] = float64(m) * (gpg.Data[i] - rhoM*kgCorr.Data[i])
	}
	return gpg, nil
}

// assembleHKModel folds the learners' dual state and the consensus into the
// explicit kernel-expansion coefficients of eq. (25).
func assembleHKModel(cfg Config, xg *linalg.Matrix, mappers []hkLearner, state []float64) (*KernelHorizontalModel, error) {
	m := len(mappers)
	l := xg.Rows
	model := &KernelHorizontalModel{
		Kernel:    cfg.Kernel,
		Landmarks: xg,
		SupportX:  make([]*linalg.Matrix, m),
		CoefX:     make([][]float64, m),
		CoefG:     make([][]float64, m),
		B:         make([]float64, m),
	}
	z := state[:l]
	for i, mp := range mappers {
		model.SupportX[i] = mp.support()
		var err error
		if model.CoefX[i], model.CoefG[i], model.B[i], err = mp.expansion(z); err != nil {
			return nil, fmt.Errorf("consensus hk: learner %d expansion: %w", i, err)
		}
	}
	return model, nil
}

// hkMapper is one learner's Map() task for the horizontal kernel scheme.
type hkMapper struct {
	m   int
	cfg Config
	x   *linalg.Matrix
	y   []float64
	l   int

	kgg   *linalg.Matrix // K(X_g, X_g)
	kgInv *linalg.Matrix // (I + ρM·K_gg)⁻¹
	kmg   *linalg.Matrix // K(X_m, X_g)

	q       *linalg.Matrix // dual Hessian Y·ΦPΦᵀ·Y + (1/ρ)yyᵀ
	phiPG   *linalg.Matrix // ΦPGᵀ, N_m × l
	gpg     *linalg.Matrix // GPGᵀ, l × l
	kgInvKm *linalg.Matrix // K⁻¹_g·K(X_g, X_m), l × N_m (for prediction)

	r    []float64 // scaled dual for Gw = z
	beta float64

	prevGw []float64
	prevB  float64
	haveW  bool
	lambda []float64 // warm start across iterations (mapper-owned copy)

	// Round scratch, allocated once so steady-state Contribution calls are
	// allocation-free; opts is prebuilt because qp.Options are closures.
	u, pg, p, ylambda, gu []float64
	qpScratch             qp.Scratch
	opts                  []qp.Option

	lastIter int
	cached   []float64
}

func (mp *hkMapper) support() *linalg.Matrix { return mp.x }

func newHKMapper(p *dataset.Dataset, m int, cfg Config, xg, kgg, kgInv *linalg.Matrix) (*hkMapper, error) {
	rhoM := cfg.Rho * float64(m)
	kmg, err := kernel.Matrix(cfg.Kernel, p.X, xg)
	if err != nil {
		return nil, err
	}
	kmm := kernel.GramMatrix(cfg.Kernel, p.X)

	// A1 = K_mg·K⁻¹_g (N_m × l).
	a1, err := linalg.MatMul(kmg, kgInv)
	if err != nil {
		return nil, err
	}
	// ΦPΦᵀ = M[K_mm − ρM·A1·K_gm].
	corr, err := linalg.MatMulT(a1, kmg)
	if err != nil {
		return nil, err
	}
	phiPPhi := kmm
	for i := range phiPPhi.Data {
		phiPPhi.Data[i] = float64(m) * (phiPPhi.Data[i] - rhoM*corr.Data[i])
	}
	// ΦPGᵀ = M[K_mg − ρM·A1·K_gg].
	a1kgg, err := linalg.MatMul(a1, kgg)
	if err != nil {
		return nil, err
	}
	phiPG := kmg.Clone()
	for i := range phiPG.Data {
		phiPG.Data[i] = float64(m) * (phiPG.Data[i] - rhoM*a1kgg.Data[i])
	}
	// GPGᵀ = M[K_gg − ρM·K_gg·K⁻¹_g·K_gg].
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
		gpg.Data[i] = float64(m) * (gpg.Data[i] - rhoM*kgCorr.Data[i])
	}
	// Dual Hessian.
	q := phiPPhi
	for i := 0; i < q.Rows; i++ {
		row := q.Row(i)
		for j := range row {
			row[j] = p.Y[i]*p.Y[j]*row[j] + p.Y[i]*p.Y[j]/cfg.Rho
		}
	}
	q.SymmetrizeUpper()
	// K⁻¹_g·K_gm for the prediction-time correction term.
	kgInvKm, err := linalg.MatMulT(kgInv, kmg)
	if err != nil {
		return nil, err
	}

	mp := &hkMapper{
		m: m, cfg: cfg, x: p.X, y: p.Y, l: xg.Rows,
		kgg: kgg, kgInv: kgInv, kmg: kmg,
		q: q, phiPG: phiPG, gpg: gpg, kgInvKm: kgInvKm,
		r:        make([]float64, xg.Rows),
		prevGw:   make([]float64, xg.Rows),
		lambda:   make([]float64, p.Len()),
		u:        make([]float64, xg.Rows),
		pg:       make([]float64, p.Len()),
		p:        make([]float64, p.Len()),
		ylambda:  make([]float64, p.Len()),
		gu:       make([]float64, xg.Rows),
		lastIter: -1,
	}
	// Zero warm start equals the solver's default start, so the option set
	// is static (see hlMapper).
	mp.opts = []qp.Option{
		qp.WithTolerance(cfg.QPTol),
		qp.WithTelemetry(cfg.Telemetry),
		qp.WithScratch(&mp.qpScratch),
		qp.WithWarmStart(mp.lambda),
	}
	return mp, nil
}

// Contribution implements mapreduce.IterativeMapper.
func (mp *hkMapper) Contribution(iter int, state []float64) ([]float64, error) {
	if iter == mp.lastIter && mp.cached != nil {
		return mp.cached, nil
	}
	z := state[:mp.l]
	s := state[mp.l]

	if mp.haveW {
		for j := range mp.r {
			mp.r[j] += mp.prevGw[j] - z[j]
		}
		mp.beta += mp.prevB - s
	}
	u := linalg.SubVec(z, mp.r, mp.u) // z − r_m
	t := s - mp.beta

	// Linear term: ρ·Y·ΦPGᵀ·u + t·y − 1.
	n := mp.x.Rows
	pg, err := mp.phiPG.MulVec(u, mp.pg)
	if err != nil {
		return nil, err
	}
	p := mp.p
	for i := 0; i < n; i++ {
		p[i] = mp.cfg.Rho*mp.y[i]*pg[i] + t*mp.y[i] - 1
	}
	res, err := qp.SolveBox(qp.Problem{Q: mp.q, P: p, C: mp.cfg.C}, mp.opts...)
	if err != nil {
		return nil, fmt.Errorf("consensus hk local solve: %w", err)
	}
	// res.Lambda aliases the qp scratch; copy it into the mapper-owned warm
	// start before the next solve zeroes the scratch.
	copy(mp.lambda, res.Lambda)

	// Gw = (ΦPGᵀ)ᵀ·Yλ + ρ·GPGᵀ·u; b = t + (1/ρ)·yᵀλ.
	ylambda := mp.ylambda
	sumYL := 0.0
	for i := range ylambda {
		ylambda[i] = mp.y[i] * res.Lambda[i]
		sumYL += ylambda[i]
	}
	// prevGw was consumed by the dual update above, so it can take this
	// round's Gw in place.
	gw, err := mp.phiPG.MulVecT(ylambda, mp.prevGw)
	if err != nil {
		return nil, err
	}
	gu, err := mp.gpg.MulVec(u, mp.gu)
	if err != nil {
		return nil, err
	}
	linalg.Axpy(mp.cfg.Rho, gu, gw)
	b := t + sumYL/mp.cfg.Rho

	mp.prevGw, mp.prevB, mp.haveW = gw, b, true
	if mp.cached == nil {
		mp.cached = make([]float64, mp.l+1)
	}
	contrib := mp.cached
	for j := range gw {
		contrib[j] = gw[j] + mp.r[j]
	}
	contrib[mp.l] = b + mp.beta
	mp.lastIter = iter
	return contrib, nil
}

// expansion converts the mapper's current dual state plus the consensus z
// into explicit kernel-expansion coefficients (eq. 25):
//
//	f(x) = Σᵢ coefX[i]·K(x, xᵢ) + Σⱼ coefG[j]·K(x, x_g[j]) + b
//	coefX = M·Yλ
//	coefG = −ρM²·K⁻¹_g·K_gm·Yλ + ρM·(I − ρM·K⁻¹_g·K_gg)·(z − r)
func (mp *hkMapper) expansion(z []float64) (coefX, coefG []float64, b float64, err error) {
	n := mp.x.Rows
	ylambda := make([]float64, n)
	coefX = make([]float64, n)
	for i := range ylambda {
		ylambda[i] = mp.y[i] * mp.lambda[i]
		coefX[i] = float64(mp.m) * ylambda[i]
	}
	coefG, err = landmarkCoefficients(mp.kgInvKm, mp.kgg, mp.kgInv, ylambda, linalg.SubVec(z, mp.r, nil), mp.cfg.Rho, mp.m)
	if err != nil {
		return nil, nil, 0, err
	}
	return coefX, coefG, mp.prevB, nil
}

// landmarkCoefficients is the coefG term of eq. (25) for a learner with
// scaled dual Yλ and u = z − r, in a cohort of m (virtual) learners:
//
//	−ρM²·K⁻¹_g·K_gm·Yλ + ρM·(I − ρM·K⁻¹_g·K_gg)·u
//
// The operand shapes are fixed when the mapper is built, so an error here is
// a broken invariant, not an input condition.
func landmarkCoefficients(kgInvKm, kgg, kgInv *linalg.Matrix, ylambda, u []float64, rho float64, m int) ([]float64, error) {
	t1, err := kgInvKm.MulVec(ylambda, nil)
	if err != nil {
		return nil, err
	}
	kgu, err := kgg.MulVec(u, nil)
	if err != nil {
		return nil, err
	}
	t2, err := kgInv.MulVec(kgu, nil)
	if err != nil {
		return nil, err
	}
	linalg.Scale(-rho*float64(m)*float64(m), t1)
	rhoM := rho * float64(m)
	coefG := t1
	for j := range coefG {
		coefG[j] = t1[j] + rhoM*(u[j]-rhoM*t2[j])
	}
	return coefG, nil
}

package consensus

import (
	"context"
	"fmt"
	"time"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/eval"
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
	// Σ_j CoefG[m][j]·K(x, X_g[j]) + B[m].
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
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, nil, err
	}
	if err := kernel.Validate(cfg.Kernel); err != nil {
		return nil, nil, fmt.Errorf("%w: kernel scheme needs a valid Config.Kernel: %v", ErrBadConfig, err)
	}
	k, err := validateHorizontalParts(parts)
	if err != nil {
		return nil, nil, err
	}
	m := len(parts)
	l := cfg.Landmarks

	// Every chunk is a virtual learner (see virtualLearners), so the shared
	// landmark matrices fold the virtual cohort size M′ = Σ_m J_m.
	mprime := 0
	for _, p := range parts {
		mprime += numChunksFor(p.Len(), cfg.ChunkRows)
	}
	lm, err := newLandmarks(cfg, k, mprime)
	if err != nil {
		return nil, nil, err
	}

	mappers := make([]mapreduce.IterativeMapper, m)
	hkMappers := make([]*hkMapper, m)
	for i, p := range parts {
		mp, err := newHKMapper(p, i, cfg, lm)
		if err != nil {
			return nil, nil, fmt.Errorf("learner %d: %w", i, err)
		}
		mappers[i] = mp
		hkMappers[i] = mp
	}
	final, h, err := trainMean(ctx, cfg, "hk", mappers, l+1, parts, func(state []float64) (float64, error) {
		model, err := assembleHKModel(cfg, lm.xg, hkMappers, state)
		if err != nil {
			return 0, err
		}
		return eval.ClassifierAccuracy(model, cfg.EvalSet)
	})
	if err != nil {
		return nil, nil, err
	}
	model, err := assembleHKModel(cfg, lm.xg, hkMappers, final)
	if err != nil {
		return nil, nil, err
	}
	return model, h, nil
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
		gpg.Data[i] = float64(m) * (gpg.Data[i] - rhoM*kgCorr.Data[i])
	}
	return &landmarks{m: m, xg: xg, kgg: kgg, kgInv: kgInv, gpg: gpg}, nil
}

// assembleHKModel folds the learners' dual state and the consensus into the
// explicit kernel-expansion coefficients of eq. (25).
func assembleHKModel(cfg Config, xg *linalg.Matrix, mappers []*hkMapper, state []float64) (*KernelHorizontalModel, error) {
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
		model.SupportX[i] = mp.x
		var err error
		if model.CoefX[i], model.CoefG[i], model.B[i], err = mp.expansion(z); err != nil {
			return nil, fmt.Errorf("consensus hk: learner %d expansion: %w", i, err)
		}
	}
	return model, nil
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
	kgInvKm *linalg.Matrix // K⁻¹_g·K_gm, for the final expansion

	sched *chunkSchedule
	vl    virtualLearners
	// probe is what expansion needs of vl as of the last completed
	// Contribution: Yλ over the n rows, then r̄ (dim values), then b̄.
	probe probeCopy

	// The P-folded blocks of chunk built: q = Y·ΦPΦᵀ·Y + (1/ρ)yyᵀ restricted
	// to the chunk (n_c × n_c) and phiPG = ΦPGᵀ|_c (n_c × l). They depend on
	// the chunk's rows only, so they are rebuilt when the schedule moves to
	// another chunk and not otherwise: with one chunk, once. Both buffers
	// are sized to the largest chunk and reused across rebuilds.
	q, phiPG *linalg.Matrix
	built    int

	// Round scratch: p is sized to the largest chunk, gu to the landmarks.
	p, gu     []float64 // p is ΦPGᵀu, then the QP's linear term, then Yλ
	qpScratch qp.Scratch
	opts      []qp.Option // the last one is the round's warm start
	chunkDur  *telemetry.Histogram
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
		probe: probeCopy{v: make([]float64, p.Len()+l+1)},
		q:     linalg.NewMatrix(maxC, maxC), phiPG: linalg.NewMatrix(maxC, l),
		p:        make([]float64, maxC),
		gu:       make([]float64, l),
		chunkDur: cfg.Telemetry.Histogram(metricChunkSeconds, telemetry.DurationBuckets),
	}
	mp.opts = []qp.Option{
		qp.WithTolerance(qpTol),
		qp.WithTelemetry(cfg.Telemetry),
		qp.WithScratch(&mp.qpScratch),
		qp.WithWarmStart(nil),
	}
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
		mp.phiPG.Data[i] = mf * (kmgC.Data[i] - rhoM*v)
	}
	if mp.q, err = kernel.MatrixInto(mp.cfg.Kernel, xc, xc, mp.q); err != nil {
		return err
	}
	for i := range yc {
		qrow, crow := mp.q.Row(i), corr.Row(i)
		for j := range qrow {
			phiP := mf * (qrow[j] - rhoM*crow[j])
			qrow[j] = yc[i]*yc[j]*phiP + yc[i]*yc[j]/mp.cfg.Rho
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
		p[i] = mp.cfg.Rho*yc[i]*pg + t*yc[i] - 1
	}
	mp.opts[len(mp.opts)-1] = qp.WithWarmStart(c.lambda)
	res, err := qp.SolveBox(qp.Problem{Q: mp.q, P: p, C: mp.cfg.C}, mp.opts...)
	if err != nil {
		return nil, fmt.Errorf("consensus hk local solve: %w", err)
	}

	// Gw = (ΦPGᵀ)ᵀ·Yλ + ρ·GPGᵀ·u; b = t + (1/ρ)·yᵀλ. The solve is done with p
	// and the dual update with c.prev, so they take Yλ and Gw in place.
	ylambda := p
	sumYL := 0.0
	for i := range ylambda {
		ylambda[i] = yc[i] * res.Lambda[i]
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
	mp.publish(c, lo)
	mp.chunkDur.Observe(time.Since(start).Seconds())
	return contrib, nil
}

// publish refreshes the probe copy after chunk c (rows from lo) committed: Yλ
// stitches the chunks' duals together, so only c's rows of it moved; r̄ and b̄
// are the means of the visited chunks' scaled duals and biases (at the fixed
// point every chunk holds Gw_c = z, and with one chunk they are that chunk's
// own), re-summed in chunk order so the value does not depend on the visit
// order.
func (mp *hkMapper) publish(c *virtualLearner, lo int) {
	n, dim := mp.x.Rows, mp.vl.dim
	mp.probe.with(func(v []float64) {
		for i, l := range c.lambda {
			v[lo+i] = mp.y[lo+i] * l
		}
		r, b := v[n:n+dim], 0.0
		linalg.Zero(r)
		for idx := range mp.vl.chunks {
			if ch := &mp.vl.chunks[idx]; ch.seen {
				linalg.Axpy(1, ch.dual, r)
				b += ch.prevB
			}
		}
		linalg.Scale(1/float64(mp.vl.visited), r)
		v[n+dim] = b / float64(mp.vl.visited)
	})
}

// expansion converts the mapper's published dual state (see publish) plus the
// consensus z into explicit kernel-expansion coefficients (eq. 25):
//
//	f(x) = Σᵢ coefX[i]·K(x, xᵢ) + Σⱼ coefG[j]·K(x, x_g[j]) + b
//	coefX = M′·Yλ
//	coefG = −ρM′²·K⁻¹_g·K_gm·Yλ + ρM′·(I − ρM′·K⁻¹_g·K_gg)·(z − r̄)
func (mp *hkMapper) expansion(z []float64) (coefX, coefG []float64, b float64, err error) {
	n := mp.x.Rows
	ylambda := make([]float64, n)
	coefX = make([]float64, n)
	u := make([]float64, mp.vl.dim) // r̄, then z − r̄
	mp.probe.with(func(v []float64) {
		copy(ylambda, v)
		copy(u, v[n:])
		b = v[n+len(u)]
	})
	for i, yl := range ylambda {
		coefX[i] = float64(mp.lm.m) * yl
	}
	linalg.SubVec(z, u, u)
	coefG, err = landmarkCoefficients(mp.kgInvKm, mp.lm.kgg, mp.lm.kgInv, ylambda, u, mp.cfg.Rho, mp.lm.m)
	if err != nil {
		return nil, nil, 0, err
	}
	return coefX, coefG, b, nil
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

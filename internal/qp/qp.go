// Package qp solves the convex quadratic programs that arise as ADMM local
// sub-problems and as the centralized SVM dual:
//
//	minimize   ½ λᵀ Q λ + pᵀ λ
//	subject to 0 ≤ λ ≤ C            (SolveBox)
//	           and optionally yᵀλ = 0 with y ∈ {−1,+1}ⁿ  (SolveEqualityBox)
//	or         0 ≤ λ ≤ C with Q = Y(η·XXᵀ + σ·11ᵀ)Y given by its factors
//	           (SolveLinearBox), and optionally yᵀλ = 0 (SolveLinearEqualityBox)
//
// The equality is the SVM dual's: the bias's multiplier. λ = 0 meets it, so
// every problem is feasible.
//
// SolveBox uses Gauss–Southwell projected coordinate descent (greedy exact
// line search per coordinate); SolveEqualityBox uses sequential minimal
// optimization with maximal-violating-pair working-set selection, the same
// scheme popularized by LIBSVM. Both maintain the gradient incrementally so
// one step costs O(n). In SolveBox that is one fused pass,
// linalg.AxpyMaxViolator, which updates the gradient and picks the next
// coordinate together. SolveLinearBox is LIBLINEAR's dual coordinate descent:
// cyclic sweeps over the rows of X with shrinking, maintaining Xᵀ(y∘λ) and
// yᵀλ instead of the gradient, so one step costs O(k) and Q is never formed.
// It is the solver for a Hessian with a low-rank factor (the linear SVM dual);
// a kernel Gram has none and takes SolveBox. SolveLinearEqualityBox adds the
// equality by the method of multipliers over SolveLinearBox's sweeps, so a
// linear SVM dual with a bias never forms Q either; SolveEqualityBox's SMO is
// for the kernel duals.
package qp

import (
	"errors"
	"fmt"
	"math"

	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/telemetry"
)

// Errors returned by the solvers.
var (
	// ErrBadProblem indicates inconsistent problem dimensions or parameters.
	ErrBadProblem = errors.New("qp: malformed problem")
)

// tau is the LIBSVM-style floor on the curvature of a working pair; it keeps
// steps finite when Q is only positive semidefinite.
const tau = 1e-12

// Problem is the QP data. Q must be symmetric positive semidefinite and P
// must have length Q.Rows. C > 0 is the uniform box upper bound.
type Problem struct {
	Q *linalg.Matrix
	P []float64
	C float64
}

func (p *Problem) validate() error {
	switch {
	case p.Q == nil:
		return fmt.Errorf("%w: nil Q", ErrBadProblem)
	case p.Q.Rows != p.Q.Cols:
		return fmt.Errorf("%w: Q is %dx%d, not square", ErrBadProblem, p.Q.Rows, p.Q.Cols)
	case len(p.P) != p.Q.Rows:
		return fmt.Errorf("%w: P has length %d, want %d", ErrBadProblem, len(p.P), p.Q.Rows)
	case !(p.C > 0):
		return fmt.Errorf("%w: C = %g, want > 0", ErrBadProblem, p.C)
	}
	return nil
}

// Result reports the solution and solver diagnostics.
type Result struct {
	// Lambda is the (approximately) optimal point.
	Lambda []float64
	// Iterations is the number of coordinate / pair updates performed; for
	// SolveUniformDiagEqualityBox (solver "diag") it counts passes over the n
	// coordinates.
	Iterations int
	// KKTViolation is the final first-order optimality gap (solver-specific
	// units; ≤ the configured tolerance when Converged). The exact diag
	// solver takes no tolerance and reports 0.
	KKTViolation float64
	// Converged reports whether the tolerance was met before the iteration cap.
	Converged bool
	// Multiplier is SolveLinearEqualityBox's multiplier of yᵀλ = 0, the SVM
	// dual's bias: with it added, Qλ + p + Multiplier·y meets the box's KKT
	// conditions. The other solvers leave it 0.
	Multiplier float64
}

// Option configures a solver invocation. Options are plain values, not
// closures: newConfig applies them without the config ever escaping, so a
// solve allocates nothing for its configuration — the solvers sit on the
// consensus round hot path, which is pinned allocation-free.
type Option struct {
	kind optionKind
	f    float64
	n    int
	vec  []float64
	scr  *Scratch
	tel  *telemetry.Registry
}

type optionKind uint8

const (
	optTolerance optionKind = iota + 1
	optMaxIter              // the tests' WithMaxIter
	optWarmStart
	optScratch
	optTelemetry
)

// Scratch holds a solve's buffers: the solution vector, the gradient, the
// working arrays and the Result. Every solve draws them from a Scratch — the
// caller's, passed WithScratch, or else a fresh one it owns alone. Carried
// across solves, a Scratch makes a steady-state round loop allocate nothing:
// the returned Result and its Lambda alias it and are overwritten by the next
// solve that uses the same Scratch. Without one, the caller keeps what the
// solve returns. The zero value is ready to use; one Scratch must not be
// shared by concurrent solves.
type Scratch struct {
	lambda []float64
	grad   []float64
	buf    []float64
	p      []float64
	idx    []int
	stuck  []bool
	res    Result
}

// WithScratch draws the solution vector, gradient, and Result from s instead
// of a fresh Scratch. See Scratch for the aliasing contract.
func WithScratch(s *Scratch) Option { return Option{kind: optScratch, scr: s} }

type config struct {
	tol       float64
	maxIter   int
	warmStart []float64
	scratch   *Scratch // never nil after newConfig
	tel       *telemetry.Registry
}

// sized returns *buf at length n, reallocating when its capacity is short.
func sized[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// takeLambda returns the scratch's solution vector, zeroed at length n, and
// its Result, reset.
func (c *config) takeLambda(n int) ([]float64, *Result) {
	s := c.scratch
	linalg.Zero(sized(&s.lambda, n))
	s.res = Result{}
	return s.lambda, &s.res
}

// warm clips the warm start, if one was given, into lambda.
func (c *config) warm(lambda []float64, ub float64) error {
	if c.warmStart == nil {
		return nil
	}
	if len(c.warmStart) != len(lambda) {
		return fmt.Errorf("%w: warm start has length %d, want %d", ErrBadProblem, len(c.warmStart), len(lambda))
	}
	for i, v := range c.warmStart {
		lambda[i] = linalg.Clamp(v, 0, ub)
	}
	return nil
}

// takeGrad, takeBuf and takeIdx return the scratch's length-n gradient and
// working buffers (contents unspecified).
func (c *config) takeGrad(n int) []float64 { return sized(&c.scratch.grad, n) }
func (c *config) takeBuf(n int) []float64  { return sized(&c.scratch.buf, n) }
func (c *config) takeIdx(n int) []int      { return sized(&c.scratch.idx, n) }

// denseMaxIter is the default update cap of the solvers whose update is O(n).
func denseMaxIter(n int) int { return 1000*n + 10000 }

// newConfig applies opts; defaultMaxIter is the solver's update cap: 1000·n +
// 10000 of SolveBox's and SolveEqualityBox's O(n) updates, and 100000·n of
// SolveLinearBox's O(k) ones, a cap SolveLinearEqualityBox's steps share.
func newConfig(opts []Option, defaultMaxIter int) config {
	cfg := config{tol: 1e-6}
	for _, o := range opts {
		switch o.kind {
		case optTolerance:
			cfg.tol = o.f
		case optMaxIter:
			cfg.maxIter = o.n
		case optWarmStart:
			cfg.warmStart = o.vec
		case optScratch:
			cfg.scratch = o.scr
		case optTelemetry:
			cfg.tel = o.tel
		}
	}
	if cfg.maxIter <= 0 {
		cfg.maxIter = defaultMaxIter
	}
	if cfg.scratch == nil {
		cfg.scratch = new(Scratch)
	}
	return cfg
}

// check rejects a tolerance no solve can stop on as asked: a NaN or negative
// one is never met, so a solve would run to its cap or to machine precision,
// and +Inf is met at once, so a solve would report Converged untouched. Zero
// is legal: the solve runs until nothing moves.
func (c *config) check() error {
	if !(c.tol >= 0) || math.IsInf(c.tol, 1) {
		return fmt.Errorf("%w: tolerance = %g, want finite ≥ 0", ErrBadProblem, c.tol)
	}
	return nil
}

// WithTolerance sets the KKT-violation stopping tolerance (default 1e-6). It
// must be finite and ≥ 0; every solver rejects any other value with
// ErrBadProblem.
func WithTolerance(tol float64) Option { return Option{kind: optTolerance, f: tol} }

// WithWarmStart seeds the solver with a previous solution. The point is
// clipped to the box; SolveEqualityBox rejects it off yᵀλ = 0, while
// SolveLinearEqualityBox starts from it as it is. A copy is taken: the
// caller's slice is not modified.
func WithWarmStart(lambda []float64) Option {
	return Option{kind: optWarmStart, vec: lambda}
}

// SolveBox minimizes ½λᵀQλ + pᵀλ over the box [0, C]ⁿ.
func SolveBox(p Problem, opts ...Option) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	n := p.Q.Rows
	cfg := newConfig(opts, denseMaxIter(n))
	if err := cfg.check(); err != nil {
		return nil, err
	}

	lambda, res := cfg.takeLambda(n)
	if err := cfg.warm(lambda, p.C); err != nil {
		return nil, err
	}
	grad := gradient(&p, lambda, cfg.takeGrad(n))

	// stuck marks coordinates whose exact line-search step rounds to zero
	// (flat or near-flat curvature pinning them in place). They are skipped
	// by the selection until any other coordinate moves — which changes
	// their gradient and may free them — instead of aborting the whole
	// solve the moment the top violator cannot move.
	var stuck []bool
	stuckCount := 0
	res.Lambda = lambda
	// Gauss–Southwell: best is the coordinate with the largest projected
	// gradient. A move selects the next one in the pass that updates the
	// gradient; only the first step and the step after a stuck mark scan.
	best := maxViolator(grad, lambda, p.C, cfg.tol, nil)
	for res.Iterations = 0; res.Iterations < cfg.maxIter; res.Iterations++ {
		if best < 0 {
			// No movable violator above tolerance; final bookkeeping below
			// decides Converged from the full (stuck included) KKT gap.
			break
		}
		i := best
		qii := p.Q.At(i, i)
		var target float64
		if qii > tau {
			target = linalg.Clamp(lambda[i]-grad[i]/qii, 0, p.C)
		} else if grad[i] > 0 {
			target = 0
		} else {
			target = p.C
		}
		delta := target - lambda[i]
		if delta == 0 {
			if stuck == nil {
				stuck = sized(&cfg.scratch.stuck, n)
				clear(stuck)
			}
			stuck[i] = true
			stuckCount++
			best = maxViolator(grad, lambda, p.C, cfg.tol, stuck)
			continue
		}
		lambda[i] = target
		if stuckCount > 0 {
			// Gradients change; pinned coordinates may be free again.
			clear(stuck)
			stuckCount = 0
		}
		best = linalg.AxpyMaxViolator(delta, p.Q.Row(i), grad, lambda, p.C, cfg.tol)
	}
	res.KKTViolation = maxProjectedGradient(grad, lambda, p.C)
	res.Converged = res.KKTViolation <= cfg.tol
	cfg.record("box", res)
	return res, nil
}

// SolveEqualityBox minimizes ½λᵀQλ + pᵀλ over {λ : 0 ≤ λ ≤ C, yᵀλ = 0} where
// every y[i] is −1 or +1: the SVM dual. Its pair steps keep yᵀλ where the
// start put it, so a warm start, once clipped, must meet the equality to
// rounding (|yᵀλ| ≤ 1e-12·(1 + C·n)); one off it is ErrBadProblem.
func SolveEqualityBox(p Problem, y []float64, opts ...Option) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	n := p.Q.Rows
	if len(y) != n {
		return nil, fmt.Errorf("%w: y has length %d, want %d", ErrBadProblem, len(y), n)
	}
	for i, v := range y {
		if v != 1 && v != -1 {
			return nil, fmt.Errorf("%w: y[%d] = %g, want ±1", ErrBadProblem, i, v)
		}
	}
	cfg := newConfig(opts, denseMaxIter(n))
	if err := cfg.check(); err != nil {
		return nil, err
	}

	lambda, res := cfg.takeLambda(n)
	if err := cfg.warm(lambda, p.C); err != nil {
		return nil, err
	}
	if cfg.warmStart != nil {
		s := 0.0
		for i, l := range lambda {
			s += float64(y[i] * l)
		}
		if math.Abs(s) > 1e-12*(1+float64(p.C*float64(n))) {
			return nil, fmt.Errorf("%w: warm start is off yᵀλ = 0", ErrBadProblem)
		}
	}
	grad := gradient(&p, lambda, cfg.takeGrad(n))

	res.Lambda = lambda
	for res.Iterations = 0; res.Iterations < cfg.maxIter; res.Iterations++ {
		i, j, viol := selectViolatingPair(grad, lambda, y, p.C)
		res.KKTViolation = viol
		if viol <= cfg.tol {
			res.Converged = true
			cfg.record("smo", res)
			return res, nil
		}
		// Move along λ += t(y_i e_i − y_j e_j), which preserves yᵀλ.
		a := p.Q.At(i, i) + p.Q.At(j, j) - float64(2*y[i]*y[j]*p.Q.At(i, j))
		if a <= tau {
			a = tau
		}
		t := (float64(y[j]*grad[j]) - float64(y[i]*grad[i])) / a
		// Box limits translated onto t.
		t = math.Min(t, stepMax(lambda[i], y[i], p.C))
		t = math.Min(t, stepMax(lambda[j], -y[j], p.C))
		if t <= 0 {
			// Numerically stuck pair; KKT gap already below meaningful change.
			res.Converged = viol <= cfg.tol
			cfg.record("smo", res)
			return res, nil
		}
		lambda[i] += float64(y[i] * t)
		lambda[j] -= float64(y[j] * t)
		lambda[i] = linalg.Clamp(lambda[i], 0, p.C)
		lambda[j] = linalg.Clamp(lambda[j], 0, p.C)
		linalg.Axpy(y[i]*t, p.Q.Row(i), grad)
		linalg.Axpy(-y[j]*t, p.Q.Row(j), grad)
	}
	_, _, res.KKTViolation = selectViolatingPair(grad, lambda, y, p.C)
	res.Converged = res.KKTViolation <= cfg.tol
	cfg.record("smo", res)
	return res, nil
}

// stepMax returns how far λ_i may move in direction dir (±1) before leaving
// [0, C].
func stepMax(li, dir, c float64) float64 {
	if dir > 0 {
		return c - li
	}
	return li
}

// selectViolatingPair implements first-order maximal-violating-pair working
// set selection. It returns indices i ∈ I_up maximizing −y_i g_i and
// j ∈ I_low minimizing −y_j g_j, and the violation m − M (≤ 0 at optimality).
func selectViolatingPair(grad, lambda, y []float64, c float64) (i, j int, violation float64) {
	up, low := -1, -1
	m, mm := math.Inf(-1), math.Inf(1)
	for k := range lambda {
		f := -y[k] * grad[k]
		inUp := (y[k] > 0 && lambda[k] < c) || (y[k] < 0 && lambda[k] > 0)
		inLow := (y[k] < 0 && lambda[k] < c) || (y[k] > 0 && lambda[k] > 0)
		if inUp && f > m {
			m, up = f, k
		}
		if inLow && f < mm {
			mm, low = f, k
		}
	}
	if up < 0 || low < 0 {
		return 0, 0, 0 // box fully binds; no feasible direction, KKT holds
	}
	return up, low, m - mm
}

// gradient computes Qλ + p into g (len(p.P) elements). For
// an all-zero λ it avoids the matrix-vector product entirely, the common
// cold-start case.
func gradient(p *Problem, lambda, g []float64) []float64 {
	copy(g, p.P)
	for i, v := range lambda {
		if v != 0 {
			linalg.Axpy(v, p.Q.Row(i), g)
		}
	}
	return g
}

// maxViolator is AxpyMaxViolator's selection as a scan, without the update:
// the first index of the largest linalg.BoxViolation above tol, skipping the
// coordinates skip marks (nil skips none), or −1.
func maxViolator(grad, lambda []float64, c, tol float64, skip []bool) int {
	best, bestViol := -1, tol
	for i, g := range grad {
		if skip != nil && skip[i] {
			continue
		}
		if v := linalg.BoxViolation(g, lambda[i], c); v > bestViol {
			best, bestViol = i, v
		}
	}
	return best
}

// maxProjectedGradient is the KKT gap of the box: the largest
// linalg.BoxViolation, NaNs skipped.
func maxProjectedGradient(grad, lambda []float64, c float64) float64 {
	var m float64
	for i, g := range grad {
		if v := linalg.BoxViolation(g, lambda[i], c); v > m {
			m = v
		}
	}
	return m
}

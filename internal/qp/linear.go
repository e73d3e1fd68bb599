package qp

import (
	"fmt"
	"math"

	"github.com/ppml-go/ppml/internal/linalg"
)

// linearSweeps sizes SolveLinearBox's default update cap: as many updates as
// this many sweeps moving every row. An update is O(k), not SolveBox's O(n),
// and cyclic order needs more of them than the greedy rule: at C = 50 on
// Higgs rows the hardest solves take 2,100 updates a row (a cold 100-row
// chunk) to 4,000 (n = 978), which SolveBox's 1000·n + 10000 would cut short.
const linearSweeps = 100000

// LinearProblem is the box QP
//
//	minimize ½ λᵀQλ + pᵀλ  subject to 0 ≤ λ ≤ C,  Q = Y(η·XXᵀ + σ·11ᵀ)Y
//
// with Y = diag(y): the dual of a linear SVM over the rows of X, η weighting
// the margin term and σ the bias. Q is given by its factors and never formed.
type LinearProblem struct {
	X     *linalg.Matrix // n rows of k features
	Y     []float64      // n labels, each −1 or +1
	Eta   float64        // η ≥ 0
	Sigma float64        // σ ≥ 0
	P     []float64      // length n
	C     float64        // box upper bound, > 0
}

func (p *LinearProblem) validate() error {
	switch {
	case p.X == nil:
		return fmt.Errorf("%w: nil X", ErrBadProblem)
	case len(p.Y) != p.X.Rows:
		return fmt.Errorf("%w: Y has length %d, want %d", ErrBadProblem, len(p.Y), p.X.Rows)
	case len(p.P) != p.X.Rows:
		return fmt.Errorf("%w: P has length %d, want %d", ErrBadProblem, len(p.P), p.X.Rows)
	case !(p.C > 0):
		return fmt.Errorf("%w: C = %g, want > 0", ErrBadProblem, p.C)
	case !(p.Eta >= 0) || !(p.Sigma >= 0):
		return fmt.Errorf("%w: η = %g, σ = %g, want ≥ 0", ErrBadProblem, p.Eta, p.Sigma)
	}
	for i, v := range p.Y {
		if v != 1 && v != -1 {
			// The value is a training label: name the row, not the datum.
			return fmt.Errorf("%w: Y[%d] is not ±1", ErrBadProblem, i)
		}
	}
	return nil
}

// SolveLinearBox minimizes a LinearProblem by dual coordinate descent (Hsieh
// et al., ICML 2008). It keeps v = Xᵀ(y∘λ) and s = yᵀλ, so coordinate i's
// gradient is y_i(η·x_iᵀv + σ·s) + p_i and an update touches row i alone:
// O(k) time, O(n + k) memory, no n × n Hessian. Rows are swept in index
// order; a coordinate sitting at a bound with its gradient pointing outward
// by more than the last sweep's largest violation is shrunk out of the
// sweeps until the remaining ones are within tolerance. Each sweep is one
// linalg.LinearSweep call.
//
// A coordinate whose projected gradient is within tolerance is not moved,
// and the solve ends on a sweep over all n rows that moved nothing, so
// KKTViolation — the largest projected gradient that sweep saw — holds at
// the returned point, in SolveBox's units. Iterations counts updates.
func SolveLinearBox(p LinearProblem, opts ...Option) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	cfg := newConfig(opts, linearSweeps*p.X.Rows)
	if err := cfg.check(); err != nil {
		return nil, err
	}
	lambda, res := cfg.takeLambda(p.X.Rows)
	if err := cfg.warm(lambda, p.C); err != nil {
		return nil, err
	}
	res.Lambda = lambda
	res.Iterations, res.KKTViolation = descend(&p, &cfg, cfg.maxIter, lambda)
	res.Converged = res.KKTViolation <= cfg.tol
	cfg.record("linear", res)
	return res, nil
}

// multiplierSteps caps SolveLinearEqualityBox's multiplier updates. The
// penalty's growth rule keeps the count far below it: the centralized
// baselines take 2–3 steps.
const multiplierSteps = 100

// SolveLinearEqualityBox minimizes a LinearProblem subject also to yᵀλ = 0,
// the linear SVM dual with a bias, by the method of multipliers (Boyd et al.,
// "Distributed Optimization and Statistical Learning via ADMM", §2.3) over
// SolveLinearBox's sweeps, so Q is never formed. Step j solves the box problem
// with the augmented Lagrangian's terms folded into the LinearProblem, σ_j·yyᵀ
// into Sigma and b_j·y into P, from the previous step's λ, then moves the
// multiplier b_{j+1} = b_j + σ_j·r with r = yᵀλ. The box problem's gradient
// at b_j is the constrained problem's at b_{j+1}, so the solve ends when a
// step's sweeps converged and |r| is within the tolerance; KKTViolation is
// the larger of the two, and Multiplier is b.
//
// The penalty starts at σ₀ = η·‖X‖²_F/(n·k), the mean per-feature diagonal
// of ηYXXᵀY, and grows tenfold whenever a step shrinks |r| by less than 4×.
// The warm start is clipped to the box but not moved onto yᵀλ = 0: the steps
// get there, and a projection would perturb Xᵀ(y∘λ). Past multiplierSteps
// steps, or once the steps' updates reach the cap, the solve returns with
// Converged false.
func SolveLinearEqualityBox(p LinearProblem, opts ...Option) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	n, k := p.X.Rows, p.X.Cols
	cfg := newConfig(opts, linearSweeps*n)
	if err := cfg.check(); err != nil {
		return nil, err
	}
	lambda, res := cfg.takeLambda(n)
	if err := cfg.warm(lambda, p.C); err != nil {
		return nil, err
	}
	xs := p.X.Data[:n*k]
	sigma := float64(p.Eta*linalg.Dot(xs, xs)) / float64(n*k)
	if !(sigma > 0) {
		sigma = 1
	}
	step := p
	step.P = sized(&cfg.scratch.p, n)
	b, prev := 0.0, math.Inf(1)
	for range multiplierSteps {
		step.Sigma = p.Sigma + sigma
		for i, y := range p.Y {
			step.P[i] = p.P[i] + float64(b*y)
		}
		iters, viol := descend(&step, &cfg, cfg.maxIter-res.Iterations, lambda)
		res.Iterations += iters
		r := 0.0
		for i, y := range p.Y {
			r += float64(y * lambda[i])
		}
		b += float64(sigma * r)
		res.KKTViolation = math.Max(viol, math.Abs(r))
		if res.KKTViolation <= cfg.tol || res.Iterations >= cfg.maxIter {
			break
		}
		if math.Abs(r) > prev/4 {
			sigma *= 10
		}
		prev = math.Abs(r)
	}
	res.Lambda, res.Multiplier = lambda, b
	res.Converged = res.KKTViolation <= cfg.tol
	cfg.record("linear-eq", res)
	return res, nil
}

// descend runs SolveLinearBox's sweeps from lambda, updating it in place,
// until a sweep over every row moves nothing, with at most maxIter updates.
// It returns the updates made and that last sweep's largest projected
// gradient.
func descend(p *LinearProblem, cfg *config, maxIter int, lambda []float64) (iters int, viol float64) {
	n, k := p.X.Rows, p.X.Cols
	v := cfg.takeBuf(k)
	linalg.Zero(v)
	s := 0.0
	for i, l := range lambda {
		if l != 0 {
			linalg.Axpy(p.Y[i]*l, p.X.Row(i), v)
			s += float64(p.Y[i] * l)
		}
	}
	// qd is diag(Q): η‖x_i‖² + σ.
	qd := cfg.takeGrad(n)
	active := cfg.takeIdx(n)
	for i := range qd {
		row := p.X.Row(i)
		qd[i] = float64(p.Eta*linalg.Dot(row, row)) + p.Sigma
		active[i] = i
	}

	// The qd loop sliced every row, so X holds n rows for the sweep.
	st := linalg.SweepState{
		X: p.X.Data, Y: p.Y, P: p.P, QD: qd, Lambda: lambda, V: v, K: k,
		Eta: p.Eta, Sigma: p.Sigma, C: p.C, Tau: tau, Tol: cfg.tol, MaxIter: maxIter,
		ShrinkAbove: math.Inf(1), ShrinkBelow: math.Inf(-1), S: s,
	}
	live := n
	for {
		full := live == n
		kept, moved := linalg.LinearSweep(&st, active[:live])
		live = kept
		if !moved {
			if full {
				return st.Iter, st.Viol
			}
			// The shrunk problem is solved; sweep every row again.
			for i := range active {
				active[i] = i
			}
			live = n
			st.ShrinkAbove, st.ShrinkBelow = math.Inf(1), math.Inf(-1)
			continue
		}
		// The last sweep's extreme projected gradients: the shrinking
		// thresholds.
		st.ShrinkAbove, st.ShrinkBelow = st.PGMax, st.PGMin
		if st.ShrinkAbove <= 0 {
			st.ShrinkAbove = math.Inf(1)
		}
		if st.ShrinkBelow >= 0 {
			st.ShrinkBelow = math.Inf(-1)
		}
	}
}

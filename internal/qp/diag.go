package qp

import (
	"fmt"
	"math"

	"github.com/ppml-go/ppml/internal/linalg"
)

// SolveUniformDiagEqualityBox solves
//
//	minimize   ½ q0 ‖λ‖² + pᵀλ
//	subject to 0 ≤ λ ≤ C,  yᵀλ = d,   y ∈ {−1,+1}ⁿ, q0 > 0
//
// exactly (to tol), via the KKT structure: λᵢ(ν) = clip((−pᵢ − ν·yᵢ)/q0, 0, C)
// for the equality multiplier ν, and s(ν) = yᵀλ(ν) is continuous and
// non-increasing, so ν solves s(ν) = d by bisection.
//
// This is the Reducer's sub-problem in the vertically partitioned schemes
// (Section IV-C): its Hessian is (M/ρ)·I, so the generic SMO solver would
// waste O(n²) memory on an identity matrix.
func SolveUniformDiagEqualityBox(q0 float64, p []float64, c float64, y []float64, d float64, opts ...Option) (*Result, error) {
	n := len(p)
	if q0 <= 0 {
		return nil, fmt.Errorf("%w: q0 = %g, want > 0", ErrBadProblem, q0)
	}
	if !(c > 0) {
		return nil, fmt.Errorf("%w: C = %g, want > 0", ErrBadProblem, c)
	}
	if len(y) != n {
		return nil, fmt.Errorf("%w: y has length %d, want %d", ErrBadProblem, len(y), n)
	}
	for i, v := range y {
		if v != 1 && v != -1 {
			return nil, fmt.Errorf("%w: y[%d] = %g, want ±1", ErrBadProblem, i, v)
		}
	}
	cfg := newConfig(opts, denseMaxIter(n))

	buf := cfg.takeBuf(n)
	// Feasibility: the reachable range of yᵀλ over the box.
	pos := 0
	for _, v := range y {
		if v > 0 {
			pos++
		}
	}
	lo, hi := -c*float64(n-pos), c*float64(pos)
	if d < lo-1e-12 || d > hi+1e-12 {
		return nil, fmt.Errorf("%w: d = %g outside [%g, %g]", ErrInfeasible, d, lo, hi)
	}

	// Bracket ν: beyond ±(‖p‖∞ + q0·C) every coordinate saturates.
	bound := linalg.NormInf(p) + q0*c + 1
	nuLo, nuHi := -bound, bound
	// s is non-increasing; expand the bracket defensively.
	for diagDualSum(nuLo, q0, c, p, y, buf) < d && nuLo > -1e30 {
		nuLo *= 2
	}
	for diagDualSum(nuHi, q0, c, p, y, buf) > d && nuHi < 1e30 {
		nuHi *= 2
	}

	iterations := 0
	for iterations = 0; iterations < cfg.maxIter; iterations++ {
		mid := 0.5 * (nuLo + nuHi)
		if diagDualSum(mid, q0, c, p, y, buf) >= d {
			nuLo = mid
		} else {
			nuHi = mid
		}
		if nuHi-nuLo <= 1e-15*(1+math.Abs(nuLo)) {
			break
		}
	}
	nu := 0.5 * (nuLo + nuHi)
	lambda, res := cfg.takeLambda(n)
	diagLambdaAt(nu, q0, c, p, y, lambda)
	// Exact-equality repair of the residual caused by the finite bisection.
	got := 0.0
	for i := range lambda {
		got += y[i] * lambda[i]
	}
	viol := math.Abs(got - d)
	if viol > 1e-9*(1+math.Abs(d)) {
		if err := repairEquality(lambda, y, d, c); err != nil {
			return nil, err
		}
	}
	res.Lambda = lambda
	res.Iterations = iterations
	res.KKTViolation = viol
	res.Converged = true
	cfg.record("diag", res)
	return res, nil
}

// diagLambdaAt evaluates λ(ν) = clip((−p − ν·y)/q0, 0, C) into dst. A
// top-level function, not a closure inside the solver: closures capturing
// the problem data would heap-allocate on every solve, and the solve sits on
// the reducer's per-round path.
func diagLambdaAt(nu, q0, c float64, p, y, dst []float64) {
	for i := range dst {
		dst[i] = linalg.Clamp((-p[i]-nu*y[i])/q0, 0, c)
	}
}

// diagDualSum evaluates s(ν) = yᵀλ(ν) using buf as λ scratch.
func diagDualSum(nu, q0, c float64, p, y, buf []float64) float64 {
	diagLambdaAt(nu, q0, c, p, y, buf)
	var s float64
	for i := range buf {
		s += y[i] * buf[i]
	}
	return s
}

package qp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/ppml-go/ppml/internal/linalg"
)

// solveBoxTwoPass is SolveBox as it was before the fused step: every step a
// full scan for the largest projected gradient, then an Axpy. It is the
// reference that pins the fused solver's path bit for bit.
func solveBoxTwoPass(p Problem, opts ...Option) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	n := p.Q.Rows
	cfg := newConfig(opts, denseMaxIter(n))

	lambda, res := cfg.takeLambda(n)
	if cfg.warmStart != nil {
		if len(cfg.warmStart) != n {
			return nil, fmt.Errorf("%w: warm start has length %d, want %d", ErrBadProblem, len(cfg.warmStart), n)
		}
		for i, v := range cfg.warmStart {
			lambda[i] = linalg.Clamp(v, 0, p.C)
		}
	}
	grad := gradient(&p, lambda, cfg.takeGrad(n))

	var stuck []bool
	stuckCount := 0
	res.Lambda = lambda
	for res.Iterations = 0; res.Iterations < cfg.maxIter; res.Iterations++ {
		best, bestViol := -1, cfg.tol
		for i := 0; i < n; i++ {
			if stuckCount > 0 && stuck[i] {
				continue
			}
			if v := math.Abs(projectedGradient(grad[i], lambda[i], p.C)); v > bestViol {
				best, bestViol = i, v
			}
		}
		if best < 0 {
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
				stuck = make([]bool, n)
			}
			stuck[i] = true
			stuckCount++
			continue
		}
		lambda[i] = target
		linalg.Axpy(delta, p.Q.Row(i), grad)
		if stuckCount > 0 {
			for j := range stuck {
				stuck[j] = false
			}
			stuckCount = 0
		}
	}
	var gap float64
	for i := range lambda {
		if v := math.Abs(projectedGradient(grad[i], lambda[i], p.C)); v > gap {
			gap = v
		}
	}
	res.KKTViolation = gap
	res.Converged = res.KKTViolation <= cfg.tol
	return res, nil
}

// projectedGradient maps the raw gradient onto the feasible directions of the
// box at the current point: zero when the gradient pushes into an active
// bound.
func projectedGradient(g, li, c float64) float64 {
	switch {
	case li <= 0:
		return math.Min(g, 0)
	case li >= c:
		return math.Max(g, 0)
	default:
		return g
	}
}

// sameResult fails unless got and want agree bit for bit: every λ, the
// iteration count, the KKT gap and the verdict.
func sameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged ||
		math.Float64bits(got.KKTViolation) != math.Float64bits(want.KKTViolation) {
		t.Fatalf("%s: %d iterations, gap %g, converged %v; the two-pass loop: %d, %g, %v",
			what, got.Iterations, got.KKTViolation, got.Converged, want.Iterations, want.KKTViolation, want.Converged)
	}
	for i := range want.Lambda {
		if math.Float64bits(got.Lambda[i]) != math.Float64bits(want.Lambda[i]) {
			t.Fatalf("%s: λ[%d] = %.17g, the two-pass loop %.17g", what, i, got.Lambda[i], want.Lambda[i])
		}
	}
}

// pinnedProblem has a coordinate every warm solve marks stuck: at λ₀ = 1
// the gradient −2⁶⁰·λ₀ + 2⁶⁰·λ₀ cancels exactly and g₀ = 10⁻³·λ₁ is left,
// so the exact step g₀/2⁶⁰ rounds away against λ₀ while |g₀| stays above
// the tolerance.
func pinnedProblem() (Problem, []float64) {
	q, err := linalg.NewMatrixFrom(3, 3, []float64{
		1 << 60, 1e-3, 0,
		1e-3, 1, 0.5,
		0, 0.5, 2,
	})
	if err != nil {
		panic(err)
	}
	return Problem{Q: q, P: []float64{-(1 << 60), -1, 0.3}, C: 2}, []float64{1, 1, 1}
}

// TestSolveBoxMatchesTwoPass pins the fused Gauss–Southwell step to the
// two-pass loop it replaced: the same selection and the same update bits give
// the same Result, bit for bit. Random PSD problems (dense, and rank-deficient
// with a flattened or sub-tau coordinate) run cold, warm from a random point
// with coordinates on both faces, warm from near their optimum, and under a
// tight iteration cap; a cap of 40n + 400 keeps the singular ones (which
// converge slowly) short, and exits some of them on it. Then the
// flat-curvature fixtures and the pinned coordinate.
func TestSolveBoxMatchesTwoPass(t *testing.T) {
	check := func(what string, p Problem, opts ...Option) {
		t.Helper()
		want, err := solveBoxTwoPass(p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SolveBox(p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, what, got, want)
	}
	rng := rand.New(rand.NewSource(36))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 37, 250} {
		for trial := 0; trial < 6; trial++ {
			var p Problem
			switch trial % 3 {
			case 0:
				p = randomProblem(rng, n, 2)
			default:
				p = randomProblem(rng, n, 0.5+rng.Float64()*5)
				b := linalg.NewMatrix(n, 1+rng.Intn(n))
				for i := range b.Data {
					b.Data[i] = rng.NormFloat64()
				}
				q, err := linalg.MatMulT(b, b)
				if err != nil {
					t.Fatal(err)
				}
				z := rng.Intn(n)
				for j := 0; j < n; j++ {
					q.Set(z, j, 0)
					q.Set(j, z, 0)
				}
				if trial%3 == 2 {
					q.Set(z, z, 1e-13)
				}
				p.Q = q
			}
			name := fmt.Sprintf("n=%d trial=%d", n, trial)
			limit := WithMaxIter(40*n + 400)
			check(name+" cold", p, WithTolerance(1e-8), limit)
			check(name+" capped", p, WithMaxIter(1+n/2))
			warm := randomFeasibleBox(rng, n, p.C)
			for i := range warm {
				switch rng.Intn(4) {
				case 0:
					warm[i] = 0
				case 1:
					warm[i] = p.C
				}
			}
			check(name+" warm", p, WithWarmStart(warm), limit)
			opt, err := SolveBox(p, WithTolerance(1e-3), limit)
			if err != nil {
				t.Fatal(err)
			}
			check(name+" warm near optimum", p, WithWarmStart(opt.Lambda), limit)
		}
	}

	zero := linalg.NewMatrix(3, 3)
	check("zero diagonal", Problem{Q: zero, P: []float64{-1, 0.5, -2}, C: 3})
	coupled, err := linalg.NewMatrixFrom(2, 2, []float64{0, -1, -1, 0})
	if err != nil {
		t.Fatal(err)
	}
	check("zero diagonal, coupled", Problem{Q: coupled, P: []float64{-1, -1}, C: 1})
	subTau, err := linalg.NewMatrixFrom(3, 3, []float64{1e-13, 0, 0, 0, 1e-13, 0, 0, 0, 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	for _, warm := range [][]float64{nil, {4, 4, 4}, {0, 0, 0}, {2, 2, 2}} {
		var opts []Option
		if warm != nil {
			opts = append(opts, WithWarmStart(warm))
		}
		check(fmt.Sprintf("sub-tau warm=%v", warm), Problem{Q: subTau, P: []float64{-2, 1, -0.5}, C: 4}, opts...)
	}
	pinned, warm := pinnedProblem()
	check("pinned", pinned, WithWarmStart(warm))
	check("pinned cold", pinned)
}

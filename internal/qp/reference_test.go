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
		t.Fatalf("%s: %d iterations, gap %g, converged %v; the reference loop: %d, %g, %v",
			what, got.Iterations, got.KKTViolation, got.Converged, want.Iterations, want.KKTViolation, want.Converged)
	}
	for i := range want.Lambda {
		if math.Float64bits(got.Lambda[i]) != math.Float64bits(want.Lambda[i]) {
			t.Fatalf("%s: λ[%d] = %.17g, the reference loop %.17g", what, i, got.Lambda[i], want.Lambda[i])
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

// solveLinearBoxReference is SolveLinearBox as it was before the fused sweep:
// the loop body inline, a Dot and an Axpy per update. The only edit is the
// float64(…) conversion at the four products a compiler may fuse with the add
// after them (the warm-start s, qd, g and s += δ·y). That is what amd64
// always computed, so the reference is the old amd64 bits on every platform.
func solveLinearBoxReference(p LinearProblem, opts ...Option) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	n, k := p.X.Rows, p.X.Cols
	cfg := newConfig(opts, linearSweeps*n)

	lambda, res := cfg.takeLambda(n)
	v := cfg.takeBuf(k)
	linalg.Zero(v)
	s := 0.0
	if cfg.warmStart != nil {
		if len(cfg.warmStart) != n {
			return nil, fmt.Errorf("%w: warm start has length %d, want %d", ErrBadProblem, len(cfg.warmStart), n)
		}
		for i, w := range cfg.warmStart {
			if lambda[i] = linalg.Clamp(w, 0, p.C); lambda[i] != 0 {
				linalg.Axpy(p.Y[i]*lambda[i], p.X.Row(i), v)
				s += float64(p.Y[i] * lambda[i])
			}
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

	res.Lambda = lambda
	live := n
	// The last sweep's extreme projected gradients: the shrinking thresholds.
	shrinkAbove, shrinkBelow := math.Inf(1), math.Inf(-1)
	for {
		full := live == n
		moved := false
		viol := 0.0
		pgMax, pgMin := math.Inf(-1), math.Inf(1)
		kept := 0
		for _, i := range active[:live] {
			row := p.X.Row(i)
			g := float64(p.Y[i]*(float64(p.Eta*linalg.Dot(row, v))+float64(p.Sigma*s))) + p.P[i]
			pg := g
			switch {
			case lambda[i] <= 0:
				if g > shrinkAbove {
					continue
				}
				if g > 0 {
					pg = 0
				}
			case lambda[i] >= p.C:
				if g < shrinkBelow {
					continue
				}
				if g < 0 {
					pg = 0
				}
			}
			active[kept] = i
			kept++
			if pg > pgMax {
				pgMax = pg
			}
			if pg < pgMin {
				pgMin = pg
			}
			if a := math.Abs(pg); a > viol {
				viol = a
			}
			// At the cap the sweeps go on without moving, so the solve still
			// ends on a full sweep that measured the point it returns.
			if math.Abs(pg) <= cfg.tol || res.Iterations >= cfg.maxIter {
				continue
			}
			var target float64
			switch {
			case qd[i] > tau:
				target = linalg.Clamp(lambda[i]-g/qd[i], 0, p.C)
			case g > 0:
				target = 0
			default:
				target = p.C
			}
			delta := target - lambda[i]
			if delta == 0 {
				continue // the step rounds to nothing; viol reports it
			}
			lambda[i] = target
			linalg.Axpy(delta*p.Y[i], row, v)
			s += float64(delta * p.Y[i])
			res.Iterations++
			moved = true
		}
		live = kept
		if !moved {
			if full {
				res.KKTViolation = viol
				break
			}
			// The shrunk problem is solved; sweep every row again.
			for i := range active {
				active[i] = i
			}
			live = n
			shrinkAbove, shrinkBelow = math.Inf(1), math.Inf(-1)
			continue
		}
		shrinkAbove, shrinkBelow = pgMax, pgMin
		if shrinkAbove <= 0 {
			shrinkAbove = math.Inf(1)
		}
		if shrinkBelow >= 0 {
			shrinkBelow = math.Inf(-1)
		}
	}
	res.Converged = res.KKTViolation <= cfg.tol
	cfg.record("linear", res)
	return res, nil
}

// TestSolveLinearBoxMatchesReference pins the fused sweep to the loop it
// replaced: the same Result, bit for bit. The fixtures are the HL bench
// problem cold and warm from the next round's centre, the same problem under
// a tight update cap, the σ = 0 zero-row face jump, and random two-class
// problems at n ∈ {1, 7, 35, 200} and k ∈ {1, 28, 30}, each cold and then
// warm on a moved linear term, with a zero and a duplicate row where n
// allows.
func TestSolveLinearBoxMatchesReference(t *testing.T) {
	check := func(what string, lp LinearProblem, opts ...Option) *Result {
		t.Helper()
		want, err := solveLinearBoxReference(lp, opts...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SolveLinearBox(lp, opts...)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, what, got, want)
		return got
	}
	cold := hlProblem(make([]float64, 28), 0)
	first := check("hlProblem cold", cold)
	w, sumYL := factors(cold, first.Lambda)
	for j := range w {
		w[j] *= cold.Eta
	}
	check("hlProblem warm", hlProblem(w, sumYL*cold.Sigma), WithWarmStart(first.Lambda))
	check("hlProblem capped", cold, WithMaxIter(500))
	check("hlProblem capped warm", cold, WithMaxIter(3), WithWarmStart(first.Lambda))
	face := linearProblem(t, [][]float64{{0, 0}, {0, 0}}, []float64{1, -1}, []float64{-1, 2}, 1, 0, 4)
	check("zero rows at σ = 0", face, WithWarmStart([]float64{1, 1}))

	rng := rand.New(rand.NewSource(39))
	for _, n := range []int{1, 7, 35, 200} {
		for _, k := range []int{1, 28, 30} {
			y := randomLabels(rng, n)
			x := linalg.NewMatrix(n, k)
			for i := 0; i < n; i++ {
				for j := 0; j < k; j++ {
					x.Data[i*k+j] = rng.NormFloat64() + 0.2*y[i]
				}
			}
			if n > 2 {
				linalg.Zero(x.Row(1))
				copy(x.Row(2), x.Row(0))
			}
			p := make([]float64, n)
			for i := range p {
				p[i] = 0.5*rng.NormFloat64() - 1
			}
			lp := LinearProblem{X: x, Y: y, P: p, Eta: 0.01 + rng.Float64(), Sigma: 0.01 * rng.Float64(), C: 0.5 + 10*rng.Float64()}
			name := fmt.Sprintf("n=%d k=%d", n, k)
			res := check(name+" cold", lp)
			warm := append([]float64(nil), res.Lambda...)
			for i := range p {
				p[i] += 0.05 * rng.NormFloat64()
			}
			check(name+" warm", lp, WithWarmStart(warm))
		}
	}
}

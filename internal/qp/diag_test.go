package qp

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"github.com/ppml-go/ppml/internal/linalg"
)

func TestDiagValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name    string
		q0, c   float64
		p, y    []float64
		wantMsg string
	}{
		{"q0=0", 0, 1, []float64{1}, []float64{1}, ""},
		{"q0=NaN", nan, 1, []float64{1}, []float64{1}, ""},
		{"q0=+Inf", inf, 1, []float64{1}, []float64{1}, ""},
		{"C=0", 1, 0, []float64{1}, []float64{1}, ""},
		{"C=NaN", 1, nan, []float64{1}, []float64{1}, ""},
		{"C=+Inf", 1, inf, []float64{1}, []float64{1}, ""},
		{"p[1]=NaN", 1, 10, []float64{-1, nan, -1}, []float64{1, 1, -1}, "p[1] is not finite"},
		{"p[2]=-Inf", 1, 10, []float64{-1, 0, -inf}, []float64{1, 1, -1}, "p[2] is not finite"},
		{"length mismatch", 1, 1, []float64{1, 2}, []float64{1}, ""},
		{"bad label", 1, 1, []float64{1}, []float64{2}, ""},
	}
	for _, tc := range cases {
		_, err := SolveUniformDiagEqualityBox(tc.q0, tc.p, tc.c, tc.y)
		if !errors.Is(err, ErrBadProblem) {
			t.Errorf("%s: err = %v, want ErrBadProblem", tc.name, err)
			continue
		}
		if tc.wantMsg != "" && err.Error() != fmt.Sprintf("%v: %s", ErrBadProblem, tc.wantMsg) {
			t.Errorf("%s: err = %q, want it to name %q and no value", tc.name, err, tc.wantMsg)
		}
	}
}

// diagCase is one seeded instance of the uniform-diagonal problem.
type diagCase struct {
	kind  string
	q0, c float64
	p, y  []float64
}

// diagCases draws the property test's instances: random shapes, staircase
// problems (q0·C far below the spread of p), duplicated p (tied breakpoints),
// every coordinate pulled onto a bound, and one class only, where 0 is the
// edge of the range of yᵀλ and λ = 0 the one feasible point.
func diagCases(rng *rand.Rand, n int) []diagCase {
	y := randomLabels(rng, n)
	draw := func(scale float64) []float64 {
		p := make([]float64, n)
		for i := range p {
			p[i] = rng.NormFloat64() * scale
		}
		return p
	}
	ones := func(v float64) []float64 {
		y := make([]float64, n)
		for i := range y {
			y[i] = v
		}
		return y
	}
	q0, c := 0.1+rng.Float64()*5, 0.5+rng.Float64()*3
	dup := make([]float64, n)
	for i := range dup {
		dup[i] = float64(rng.Intn(5) - 2) // breakpoints collide across coordinates at q0·C = 1
	}
	pull := make([]float64, n)
	for i := range pull {
		pull[i] = -100 - rng.Float64() // every λᵢ wants to sit far above C
	}
	sc := 1e-3 * (0.5 + rng.Float64())
	return []diagCase{
		{"random", q0, c, draw(0.1 + rng.Float64()*10), y},
		{"staircase", 1, sc, draw(10), y},
		{"duplicate", 1, 1, dup, y},
		{"all at bounds", 1, c, pull, y},
		{"positive class only", q0, c, draw(2), ones(1)},
		{"negative class only", q0, c, draw(2), ones(-1)},
	}
}

// passBound is the pass bound SolveUniformDiagEqualityBox documents,
// computed apart from diagPassBound, which the search itself budgets by.
func passBound(n int) int { return 2*int(math.Ceil(math.Log2(float64(2*n)))) + 4 }

// checkDiag asserts the contract every instance must meet: λ in the box,
// yᵀλ = 0 to the rounding of n terms, and the documented pass bound.
func checkDiag(t *testing.T, name string, tc diagCase, res *Result) {
	t.Helper()
	n := len(tc.p)
	// Summed exactly, so the check sees λ's rounding and not the sum's.
	sum := new(big.Float).SetPrec(4096)
	for i, v := range res.Lambda {
		if !(v >= 0 && v <= tc.c) {
			t.Fatalf("%s: λ[%d] = %g outside [0, %g]", name, i, v, tc.c)
		}
		sum.Add(sum, big.NewFloat(tc.y[i]*v))
	}
	resid, _ := sum.Float64()
	// The rounding of ν is relative to the offsets |pᵢ|/q0 it is compared
	// with, which the staircase and bound-pulling cases make far larger than C.
	scale := math.Max(tc.c, linalg.NormInf(tc.p)/tc.q0)
	if tol := 2 * float64(n) * 0x1p-52 * scale; math.Abs(resid) > tol {
		t.Fatalf("%s: |yᵀλ| = %g > %g", name, math.Abs(resid), tol)
	}
	if bound := passBound(n); res.Iterations > bound {
		t.Fatalf("%s: %d passes > bound %d", name, res.Iterations, bound)
	}
}

// diagObjective is ½q0‖λ‖² + pᵀλ without forming the n×n Hessian.
func diagObjective(q0 float64, p, lambda []float64) float64 {
	return 0.5*q0*linalg.Dot(lambda, lambda) + linalg.Dot(p, lambda)
}

// diagDualBound is max over ν of the Lagrangian dual
// g(ν) = Σᵢ min_{0≤λᵢ≤C} (½q0λᵢ² + (pᵢ + ν·yᵢ)λᵢ), a lower bound on the
// optimum that needs no n×n matrix. g′(ν) = yᵀλ(ν) is non-increasing,
// so 200 bisection steps place ν at the rounding of its bracket.
func diagDualBound(tc diagCase) float64 {
	lam := make([]float64, len(tc.p))
	slope := func(nu float64) float64 {
		diagLambdaAt(nu, tc.q0, tc.c, tc.p, tc.y, lam)
		return linalg.Dot(tc.y, lam)
	}
	hi := linalg.NormInf(tc.p) + tc.q0*tc.c + 1
	lo := -hi
	for k := 0; k < 200; k++ {
		if mid := 0.5 * (lo + hi); slope(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	best := math.Inf(-1)
	for _, nu := range []float64{lo, hi} {
		diagLambdaAt(nu, tc.q0, tc.c, tc.p, tc.y, lam)
		best = math.Max(best, diagObjective(tc.q0, tc.p, lam)+nu*linalg.Dot(tc.y, lam))
	}
	return best
}

// TestDiagMatchesDenseSMO is the seeded property test of the exact search:
// on every instance of diagCases, its objective is no worse than SMO's on the
// explicit q0·I problem (n ≤ 300) or than the Lagrangian dual bound (n up to
// 5,000), by at most 1e-12 relative, and checkDiag's contract holds.
func TestDiagMatchesDenseSMO(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(300)
		if trial%4 == 3 {
			n = 1 + rng.Intn(5000)
		}
		for _, tc := range diagCases(rng, n) {
			name := fmt.Sprintf("trial %d %s n=%d", trial, tc.kind, n)
			got, err := SolveUniformDiagEqualityBox(tc.q0, tc.p, tc.c, tc.y)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkDiag(t, name, tc, got)
			objGot := diagObjective(tc.q0, tc.p, got.Lambda)
			var objWant float64
			if n <= 300 {
				dense := linalg.NewMatrix(n, n)
				for i := 0; i < n; i++ {
					dense.Set(i, i, tc.q0)
				}
				want, err := SolveEqualityBox(Problem{Q: dense, P: tc.p, C: tc.c}, tc.y, WithTolerance(1e-10))
				if err != nil {
					t.Fatalf("%s dense: %v", name, err)
				}
				objWant = diagObjective(tc.q0, tc.p, want.Lambda)
			} else {
				objWant = diagDualBound(tc)
			}
			if objGot > objWant+1e-12*math.Max(1, math.Abs(objWant)) {
				t.Fatalf("%s: objective %.17g worse than the reference %.17g", name, objGot, objWant)
			}
		}
	}
}

func TestDiagAnalytic(t *testing.T) {
	// min ½‖λ‖² − λ₁ − λ₂ s.t. λ₁ − λ₂ = 0, box [0,10]: λ = (1,1).
	res, err := SolveUniformDiagEqualityBox(1, []float64{-1, -1}, 10, []float64{1, -1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Lambda[0]-1) > 1e-6 || math.Abs(res.Lambda[1]-1) > 1e-6 {
		t.Errorf("λ = %v, want [1 1]", res.Lambda)
	}
}

func TestDiagBindingBox(t *testing.T) {
	// Strong pull beyond the box: clip at C with the equality preserved.
	res, err := SolveUniformDiagEqualityBox(1, []float64{-100, -100}, 2, []float64{1, -1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Lambda[0]-2) > 1e-6 || math.Abs(res.Lambda[1]-2) > 1e-6 {
		t.Errorf("λ = %v, want [2 2]", res.Lambda)
	}
}

func TestDiagLargeProblemFast(t *testing.T) {
	// The point of the specialized solver: n = 20000 with no n² memory, in
	// at most 2⌈log₂(2n)⌉ + 4 passes over the coordinates.
	rng := rand.New(rand.NewSource(34))
	n := 20000
	p := make([]float64, n)
	for i := range p {
		p[i] = rng.NormFloat64()
	}
	y := randomLabels(rng, n)
	res, err := SolveUniformDiagEqualityBox(0.04, p, 50, y)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i := range res.Lambda {
		sum += y[i] * res.Lambda[i]
	}
	if math.Abs(sum) > 1e-6 {
		t.Errorf("yᵀλ = %g, want 0", sum)
	}
	if bound := passBound(n); res.Iterations > bound {
		t.Errorf("%d passes > bound %d", res.Iterations, bound)
	}
	// Many overlapping free intervals make s smooth here: the Newton step
	// from ν = 0 lands on the root's segment, and no median step is needed.
	if res.Iterations > 3 {
		t.Errorf("%d passes on a smooth instance, want ≤ 3 (Newton steps)", res.Iterations)
	}
}

// TestDiagScratchAllocatesNothing pins the reducer's contract: with a reused
// Scratch a solve allocates nothing, on the median path as on the Newton one.
func TestDiagScratchAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, tc := range diagCases(rng, 2000)[:2] {
		var s Scratch
		opts := []Option{WithScratch(&s)}
		solve := func() {
			if _, err := SolveUniformDiagEqualityBox(tc.q0, tc.p, tc.c, tc.y, opts...); err != nil {
				t.Fatal(err)
			}
		}
		solve()
		if a := testing.AllocsPerRun(20, solve); a != 0 {
			t.Errorf("%s: %v allocs per solve, want 0", tc.kind, a)
		}
	}
}

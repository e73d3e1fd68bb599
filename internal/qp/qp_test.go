package qp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/ppml-go/ppml/internal/linalg"
)

// objective evaluates ½ λᵀQλ + pᵀλ.
// WithMaxIter overrides a solve's update cap (newConfig's defaultMaxIter),
// so the tests can stop a solve short of its tolerance.
func WithMaxIter(n int) Option { return Option{kind: optMaxIter, n: n} }

func (p *Problem) objective(lambda []float64) float64 {
	qv, err := p.Q.MulVec(lambda, nil)
	if err != nil {
		return math.NaN()
	}
	return 0.5*linalg.Dot(lambda, qv) + linalg.Dot(p.P, lambda)
}

func randomSPD(rng *rand.Rand, n int, ridge float64) *linalg.Matrix {
	b := linalg.NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	q, err := linalg.MatMulT(b, b)
	if err != nil {
		panic(err)
	}
	if err := q.AddScaledIdentity(ridge); err != nil {
		panic(err)
	}
	q.SymmetrizeUpper()
	return q
}

func randomProblem(rng *rand.Rand, n int, c float64) Problem {
	p := make([]float64, n)
	for i := range p {
		p[i] = rng.NormFloat64()
	}
	return Problem{Q: randomSPD(rng, n, 0.1), P: p, C: c}
}

func randomLabels(rng *rand.Rand, n int) []float64 {
	y := make([]float64, n)
	for i := range y {
		if rng.Intn(2) == 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	return y
}

// randomFeasibleBox returns a uniformly random point of [0,C]^n.
func randomFeasibleBox(rng *rand.Rand, n int, c float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64() * c
	}
	return x
}

// randomOnEquality returns a random point of [0,C]^n with yᵀλ = 0 to
// rounding: a random point of the box with the heavier class scaled down to
// the other's total.
func randomOnEquality(rng *rand.Rand, y []float64, c float64) []float64 {
	x := randomFeasibleBox(rng, len(y), c)
	pos, neg := 0.0, 0.0
	for i, v := range x {
		if y[i] > 0 {
			pos += v
		} else {
			neg += v
		}
	}
	for i := range x {
		switch {
		case y[i] > 0 && pos > neg:
			x[i] *= neg / pos
		case y[i] < 0 && neg > pos:
			x[i] *= pos / neg
		}
	}
	return x
}

func TestSolveBoxValidation(t *testing.T) {
	if _, err := SolveBox(Problem{}); !errors.Is(err, ErrBadProblem) {
		t.Errorf("nil Q: err = %v, want ErrBadProblem", err)
	}
	q := linalg.Identity(2)
	if _, err := SolveBox(Problem{Q: q, P: []float64{1}, C: 1}); !errors.Is(err, ErrBadProblem) {
		t.Errorf("short P: err = %v, want ErrBadProblem", err)
	}
	if _, err := SolveBox(Problem{Q: q, P: []float64{1, 1}, C: 0}); !errors.Is(err, ErrBadProblem) {
		t.Errorf("C=0: err = %v, want ErrBadProblem", err)
	}
	if _, err := SolveBox(Problem{Q: linalg.NewMatrix(2, 3), P: []float64{1, 1}, C: 1}); !errors.Is(err, ErrBadProblem) {
		t.Errorf("non-square Q: err = %v, want ErrBadProblem", err)
	}
	if _, err := SolveBox(Problem{Q: q, P: []float64{1, 1}, C: 1}, WithWarmStart([]float64{1})); !errors.Is(err, ErrBadProblem) {
		t.Errorf("bad warm start: err = %v, want ErrBadProblem", err)
	}
}

func TestSolveBoxAnalytic1D(t *testing.T) {
	// min ½λ² − λ over [0, 10] has optimum λ = 1.
	q, _ := linalg.NewMatrixFrom(1, 1, []float64{1})
	res, err := SolveBox(Problem{Q: q, P: []float64{-1}, C: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || math.Abs(res.Lambda[0]-1) > 1e-6 {
		t.Errorf("1D box: λ = %v (converged=%v), want [1]", res.Lambda, res.Converged)
	}
	// With C = 0.5 the optimum clips to the bound.
	res, err = SolveBox(Problem{Q: q, P: []float64{-1}, C: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Lambda[0]-0.5) > 1e-9 {
		t.Errorf("clipped box: λ = %v, want [0.5]", res.Lambda)
	}
}

func TestSolveBoxKKTAndDominance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(20)
		prob := randomProblem(rng, n, 2.0)
		res, err := SolveBox(prob, WithTolerance(1e-8))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("trial %d: did not converge (viol %g)", trial, res.KKTViolation)
		}
		// Fresh KKT check, independent of solver bookkeeping.
		g, err := prob.Q.MulVec(res.Lambda, nil)
		if err != nil {
			t.Fatal(err)
		}
		linalg.Axpy(1, prob.P, g)
		for i, li := range res.Lambda {
			pg := projectedGradient(g[i], li, prob.C)
			if math.Abs(pg) > 1e-6 {
				t.Fatalf("trial %d: KKT violated at %d: pg = %g", trial, i, pg)
			}
		}
		// The solution must dominate random feasible points.
		opt := prob.objective(res.Lambda)
		for s := 0; s < 20; s++ {
			x := randomFeasibleBox(rng, n, prob.C)
			if obj := prob.objective(x); obj < opt-1e-6 {
				t.Fatalf("trial %d: random point beats solver: %g < %g", trial, obj, opt)
			}
		}
	}
}

func TestSolveBoxWarmStartFewerIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prob := randomProblem(rng, 30, 1.5)
	cold, err := SolveBox(prob, WithTolerance(1e-9))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := SolveBox(prob, WithTolerance(1e-9), WithWarmStart(cold.Lambda))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Converged {
		t.Fatal("warm start did not converge")
	}
	if warm.Iterations > cold.Iterations {
		t.Errorf("warm start took %d iterations, cold took %d", warm.Iterations, cold.Iterations)
	}
	if math.Abs(prob.objective(warm.Lambda)-prob.objective(cold.Lambda)) > 1e-6 {
		t.Error("warm and cold solutions have different objectives")
	}
}

func TestSolveBoxWarmStartClipped(t *testing.T) {
	q := linalg.Identity(2)
	res, err := SolveBox(Problem{Q: q, P: []float64{0, 0}, C: 1}, WithWarmStart([]float64{-5, 99}))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Lambda {
		if v < 0 || v > 1 {
			t.Errorf("warm-start clip failed: λ[%d] = %g", i, v)
		}
	}
}

func TestSolveBoxMaxIterCap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	prob := randomProblem(rng, 25, 3)
	res, err := SolveBox(prob, WithTolerance(1e-14), WithMaxIter(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 3 {
		t.Errorf("iteration cap ignored: %d > 3", res.Iterations)
	}
}

func TestSolveEqualityBoxValidation(t *testing.T) {
	q := linalg.Identity(2)
	prob := Problem{Q: q, P: []float64{0, 0}, C: 1}
	if _, err := SolveEqualityBox(prob, []float64{1}); !errors.Is(err, ErrBadProblem) {
		t.Errorf("short y: err = %v, want ErrBadProblem", err)
	}
	if _, err := SolveEqualityBox(prob, []float64{1, 0.5}); !errors.Is(err, ErrBadProblem) {
		t.Errorf("non-±1 y: err = %v, want ErrBadProblem", err)
	}
	// λ = 0 meets yᵀλ = 0, so a one-class problem is feasible too, at λ = 0.
	if res, err := SolveEqualityBox(prob, []float64{1, 1}); err != nil || res.Lambda[0] != 0 || res.Lambda[1] != 0 {
		t.Errorf("one class: res = %+v, err = %v, want λ = 0", res, err)
	}
	// A warm start is clipped to the box, and must then meet the equality.
	y := []float64{1, -1}
	if _, err := SolveEqualityBox(prob, y, WithWarmStart([]float64{0.5, 0.2})); !errors.Is(err, ErrBadProblem) {
		t.Errorf("warm start off yᵀλ = 0: err = %v, want ErrBadProblem", err)
	}
	if _, err := SolveEqualityBox(prob, y, WithWarmStart([]float64{3, 1})); err != nil {
		t.Errorf("warm start clipped onto yᵀλ = 0: %v", err)
	}
}

func TestSolveEqualityBoxAnalytic(t *testing.T) {
	// min ½(λ₁²+λ₂²) − λ₁ − λ₂  s.t. λ₁ − λ₂ = 0, 0 ≤ λ ≤ 10.
	// Symmetric: λ₁ = λ₂ = 1.
	q := linalg.Identity(2)
	res, err := SolveEqualityBox(Problem{Q: q, P: []float64{-1, -1}, C: 10}, []float64{1, -1}, WithTolerance(1e-10))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Lambda[0]-1) > 1e-6 || math.Abs(res.Lambda[1]-1) > 1e-6 {
		t.Errorf("analytic equality: λ = %v, want [1 1]", res.Lambda)
	}
}

func TestSolveEqualityBoxPreservesConstraint(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(25)
		prob := randomProblem(rng, n, 2.0)
		y := randomLabels(rng, n)
		res, err := SolveEqualityBox(prob, y, WithTolerance(1e-8))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sum := 0.0
		for i := range res.Lambda {
			sum += y[i] * res.Lambda[i]
			if res.Lambda[i] < -1e-12 || res.Lambda[i] > prob.C+1e-12 {
				t.Fatalf("trial %d: λ[%d] = %g outside box", trial, i, res.Lambda[i])
			}
		}
		if math.Abs(sum) > 1e-9 {
			t.Fatalf("trial %d: yᵀλ = %g, want 0", trial, sum)
		}
		if !res.Converged {
			t.Fatalf("trial %d: did not converge, viol %g", trial, res.KKTViolation)
		}
		// Dominance over random feasible points.
		opt := prob.objective(res.Lambda)
		for s := 0; s < 15; s++ {
			cand := randomOnEquality(rng, y, prob.C)
			if obj := prob.objective(cand); obj < opt-1e-5 {
				t.Fatalf("trial %d: feasible point beats solver: %g < %g", trial, obj, opt)
			}
		}
	}
}

func TestSolveEqualityBoxMatchesBoxWhenUnconstrainedOptimumFeasible(t *testing.T) {
	// With P = −Q·1 the unconstrained optimum is λ = 1 (interior), and with
	// as many +1 labels as −1 it meets yᵀλ = 0: the equality must give the
	// same answer.
	rng := rand.New(rand.NewSource(23))
	n := 8
	q := randomSPD(rng, n, 0.5)
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	p, err := q.MulVec(ones, nil)
	if err != nil {
		t.Fatal(err)
	}
	linalg.Scale(-1, p)
	y := make([]float64, n)
	for i, j := range rng.Perm(n) {
		y[i] = float64(2*(j%2) - 1)
	}
	prob := Problem{Q: q, P: p, C: 10}
	res, err := SolveEqualityBox(prob, y, WithTolerance(1e-10))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Lambda {
		if math.Abs(v-1) > 1e-5 {
			t.Fatalf("λ[%d] = %g, want 1", i, v)
		}
	}
}

func TestObjectiveQuadratic(t *testing.T) {
	q, _ := linalg.NewMatrixFrom(2, 2, []float64{2, 0, 0, 4})
	prob := Problem{Q: q, P: []float64{1, -1}, C: 1}
	// ½(2·1 + 4·4) + (1 − 2) = 9 − 1 = 8
	if got := prob.objective([]float64{1, 2}); got != 8 {
		t.Errorf("objective = %g, want 8", got)
	}
}

func TestSolveEqualityBoxSVMDualToy(t *testing.T) {
	// Classic 2-point SVM: x₁ = (1), y₁ = +1; x₂ = (−1), y₂ = −1.
	// Dual: Q = yᵢyⱼxᵢxⱼ = [[1,1],[1,1]], p = −1. yᵀλ = 0 ⇒ λ₁ = λ₂.
	// Objective ½(λ₁+λ₂)² − λ₁ − λ₂ with λ₁=λ₂=t: 2t² − 2t ⇒ t = ½.
	q, _ := linalg.NewMatrixFrom(2, 2, []float64{1, 1, 1, 1})
	res, err := SolveEqualityBox(Problem{Q: q, P: []float64{-1, -1}, C: 10}, []float64{1, -1}, WithTolerance(1e-10))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Lambda[0]-0.5) > 1e-6 || math.Abs(res.Lambda[1]-0.5) > 1e-6 {
		t.Errorf("toy SVM dual: λ = %v, want [0.5 0.5]", res.Lambda)
	}
}

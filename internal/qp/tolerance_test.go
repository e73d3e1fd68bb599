package qp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/ppml-go/ppml/internal/linalg"
)

// TestSolversRejectBadTolerance: a tolerance no solve can stop on as asked is
// ErrBadProblem in every solver, not a silent run to the cap (NaN, negative)
// or a Converged result that never moved (+Inf). Zero stays legal.
func TestSolversRejectBadTolerance(t *testing.T) {
	const n, k = 50, 4
	rng := rand.New(rand.NewSource(3))
	box := randomProblem(rng, n, 1)
	y := randomLabels(rng, n)
	x := linalg.NewMatrix(n, k)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	lp := LinearProblem{X: x, Y: y, Eta: 1, Sigma: 0.5, P: box.P, C: 1}
	solvers := []struct {
		name  string
		solve func(...Option) (*Result, error)
	}{
		{"SolveBox", func(o ...Option) (*Result, error) { return SolveBox(box, o...) }},
		{"SolveEqualityBox", func(o ...Option) (*Result, error) { return SolveEqualityBox(box, y, o...) }},
		{"SolveLinearBox", func(o ...Option) (*Result, error) { return SolveLinearBox(lp, o...) }},
		{"SolveLinearEqualityBox", func(o ...Option) (*Result, error) { return SolveLinearEqualityBox(lp, o...) }},
		{"SolveUniformDiagEqualityBox", func(o ...Option) (*Result, error) {
			return SolveUniformDiagEqualityBox(2, box.P, 1, y, o...)
		}},
	}
	for _, s := range solvers {
		for _, tol := range []float64{math.NaN(), -1, -1e-300, math.Inf(1), math.Inf(-1)} {
			if res, err := s.solve(WithTolerance(tol)); !errors.Is(err, ErrBadProblem) {
				t.Errorf("%s at tolerance %g: result %+v, err %v, want ErrBadProblem", s.name, tol, res, err)
			}
		}
		res, err := s.solve(WithTolerance(0))
		if err != nil {
			t.Errorf("%s at tolerance 0: %v", s.name, err)
		} else if res.Iterations == 0 {
			t.Errorf("%s at tolerance 0 made no update", s.name)
		}
	}
}

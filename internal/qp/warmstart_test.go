package qp

// Warm-start contract tests: the minibatch round loop re-solves each chunk's
// dual every epoch from the previous epoch's λ with a shared Scratch, and its
// memory budget depends on the warm path neither allocating nor regressing to
// a cold solve's iteration count.

import (
	"math/rand"
	"testing"

	"github.com/ppml-go/ppml/internal/linalg"
)

// warmTestProblem builds a well-conditioned random SPD box QP of size n.
func warmTestProblem(n int, seed int64) Problem {
	rng := rand.New(rand.NewSource(seed))
	a := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	q := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += a.At(i, k) * a.At(j, k)
			}
			q.Set(i, j, s)
		}
		q.Set(i, i, q.At(i, i)+float64(n))
	}
	p := make([]float64, n)
	for i := range p {
		p[i] = rng.NormFloat64() * float64(n)
	}
	return Problem{Q: q, P: p, C: 1}
}

// TestWarmStartConvergesFaster: re-solving from the previous optimum (the
// epoch-over-epoch pattern) must take strictly fewer iterations than the cold
// solve, and a warm start from the exact optimum must terminate (nearly)
// immediately while reproducing the same objective.
func TestWarmStartConvergesFaster(t *testing.T) {
	prob := warmTestProblem(40, 3)
	cold, err := SolveBox(prob, WithTolerance(1e-8))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Iterations == 0 {
		t.Fatal("cold solve finished in 0 iterations; the problem is degenerate")
	}
	warm, err := SolveBox(prob, WithTolerance(1e-8), WithWarmStart(cold.Lambda))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations >= cold.Iterations {
		t.Errorf("warm solve took %d iterations, cold took %d; warm must be strictly cheaper", warm.Iterations, cold.Iterations)
	}
	// Warm-starting at the optimum leaves nothing to do beyond the KKT scan.
	if warm.Iterations > cold.Iterations/10+1 {
		t.Errorf("warm solve from the optimum took %d iterations (cold %d)", warm.Iterations, cold.Iterations)
	}
	if co, wo := prob.objective(cold.Lambda), prob.objective(warm.Lambda); wo > co+1e-9 {
		t.Errorf("warm objective %g worse than cold %g", wo, co)
	}
}

// TestWarmStartPerturbedProblem is the minibatch reality: the chunk's Q stays
// fixed but the linear term p drifts with the consensus state between epochs.
// A warm start from the previous epoch's λ must still beat the cold solve on
// the drifted problem.
func TestWarmStartPerturbedProblem(t *testing.T) {
	prob := warmTestProblem(40, 5)
	prev, err := SolveBox(prob, WithTolerance(1e-8))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	drifted := prob
	drifted.P = append([]float64(nil), prob.P...)
	for i := range drifted.P {
		drifted.P[i] += 0.05 * rng.NormFloat64()
	}
	cold, err := SolveBox(drifted, WithTolerance(1e-8))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := SolveBox(drifted, WithTolerance(1e-8), WithWarmStart(prev.Lambda))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations >= cold.Iterations {
		t.Errorf("warm solve on drifted problem took %d iterations, cold took %d", warm.Iterations, cold.Iterations)
	}
}

// TestWarmStartClipsToBox: a stale λ outside [0, C] (the box does not scale
// with the chunk, but a caller could hand a λ from a different C) must be
// clipped, not trusted.
func TestWarmStartClipsToBox(t *testing.T) {
	prob := warmTestProblem(12, 9)
	bad := make([]float64, 12)
	for i := range bad {
		bad[i] = 5 - float64(i) // above C=1 and below 0
	}
	res, err := SolveBox(prob, WithTolerance(1e-8), WithWarmStart(bad))
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range res.Lambda {
		if l < 0 || l > prob.C {
			t.Fatalf("lambda[%d] = %g outside [0, %g]", i, l, prob.C)
		}
	}
	// The caller's slice is untouched.
	if bad[0] != 5 {
		t.Error("WithWarmStart mutated the caller's vector")
	}
}

// TestWarmStartScratchZeroAlloc: the steady-state round loop — same Scratch,
// warm start from the previous solve — must not allocate.
func TestWarmStartScratchZeroAlloc(t *testing.T) {
	prob := warmTestProblem(24, 13)
	var scr Scratch
	warm := make([]float64, 24)
	res, err := SolveBox(prob, WithTolerance(1e-8), WithScratch(&scr), WithWarmStart(warm))
	if err != nil {
		t.Fatal(err)
	}
	copy(warm, res.Lambda)
	opts := []Option{WithTolerance(1e-8), WithScratch(&scr), WithWarmStart(warm)}
	allocs := testing.AllocsPerRun(20, func() {
		r, err := SolveBox(prob, opts...)
		if err != nil {
			t.Fatal(err)
		}
		copy(warm, r.Lambda)
	})
	if allocs > 0 {
		t.Errorf("steady-state warm solve allocates %g objects per run, want 0", allocs)
	}
}

// TestPinnedCoordinateScratchZeroAlloc: a warm solve that marks a coordinate
// stuck draws its marks from the Scratch too, so the steady-state round loop
// stays allocation-free on a problem that pins one.
func TestPinnedCoordinateScratchZeroAlloc(t *testing.T) {
	prob, warm := pinnedProblem()
	var scr Scratch
	opts := []Option{WithScratch(&scr), WithWarmStart(warm)}
	res, err := SolveBox(prob, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lambda[0] != 1 || res.Converged {
		t.Fatalf("λ₀ = %g, converged %v: the fixture no longer pins coordinate 0", res.Lambda[0], res.Converged)
	}
	copy(warm, res.Lambda)
	allocs := testing.AllocsPerRun(20, func() {
		r, err := SolveBox(prob, opts...)
		if err != nil {
			t.Fatal(err)
		}
		copy(warm, r.Lambda)
	})
	if allocs > 0 {
		t.Errorf("steady-state warm solve with a pinned coordinate allocates %g objects per run, want 0", allocs)
	}
}

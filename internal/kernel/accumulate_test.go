package kernel

import (
	"errors"
	"math"
	"sync"
	"testing"

	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/parallel"
)

// fourKernels is the closed set, at parameters that keep every entry O(1) on
// standard-normal rows of a dozen features.
var fourKernels = []Kernel{
	Linear{}, RBF{Gamma: 0.05}, Polynomial{A: 0.1, B: 1, Degree: 3}, Sigmoid{A: 0.05, C: -0.2},
}

// sparseCoef returns n coefficients of which every third is zero.
func sparseCoef(n int) []float64 {
	coef := make([]float64, n)
	for j := range coef {
		if j%3 != 0 {
			coef[j] = math.Sin(float64(j)) / 4
		}
	}
	return coef
}

// TestAccumulateMatchesEval pins the primitive against the scalar expansion
// Σ_j coef[j]·k.Eval(support_j, x_i) it replaces: agreement to 1e-9 relative
// for dense, mixed-zero and all-zero coefficients, accumulation on top of
// what dst held, and a result that does not depend on the worker count (the
// contract of TestMatrixMatchesGram / TestTiledMatchesNaive).
func TestAccumulateMatchesEval(t *testing.T) {
	x := randomSamples(t, 1, 77, 13) // a full panel and a partial one ending in a short tile
	support := randomSamples(t, 2, 41, 13)
	dense := make([]float64, support.Rows)
	for j := range dense {
		dense[j] = math.Cos(float64(j)) / 4
	}
	coefs := map[string][]float64{
		"dense": dense, "mixed-zero": sparseCoef(support.Rows), "all-zero": make([]float64, support.Rows),
	}
	for _, k := range fourKernels {
		for name, coef := range coefs {
			prev := parallel.SetWorkers(1)
			prevThr := parallel.SetThreshold(1)
			seq := make([]float64, x.Rows)
			for i := range seq {
				seq[i] = 0.5
			}
			err := Accumulate(k, x, support, coef, seq)
			parallel.SetWorkers(4)
			par := make([]float64, x.Rows)
			for i := range par {
				par[i] = 0.5
			}
			if err == nil {
				err = Accumulate(k, x, support, coef, par)
			}
			parallel.SetWorkers(prev)
			parallel.SetThreshold(prevThr)
			if err != nil {
				t.Fatalf("%s/%s: %v", k.Name(), name, err)
			}
			for i := range seq {
				want := 0.5
				for j, c := range coef {
					if c != 0 {
						want += c * k.Eval(support.Row(j), x.Row(i))
					}
				}
				if math.Abs(seq[i]-want) > 1e-9*math.Max(1, math.Abs(want)) {
					t.Fatalf("%s/%s: row %d = %.17g, scalar expansion %.17g", k.Name(), name, i, seq[i], want)
				}
				if par[i] != seq[i] {
					t.Fatalf("%s/%s: row %d depends on the worker count: %.17g vs %.17g", k.Name(), name, i, par[i], seq[i])
				}
			}
		}
	}
}

func TestAccumulateShapeErrors(t *testing.T) {
	x, support := linalg.NewMatrix(3, 4), linalg.NewMatrix(2, 4)
	for name, err := range map[string]error{
		"features": Accumulate(Linear{}, linalg.NewMatrix(3, 5), support, make([]float64, 2), make([]float64, 3)),
		"coef":     Accumulate(Linear{}, x, support, make([]float64, 3), make([]float64, 3)),
		"dst":      Accumulate(Linear{}, x, support, make([]float64, 2), make([]float64, 2)),
	} {
		if !errors.Is(err, linalg.ErrShape) {
			t.Errorf("%s mismatch: err = %v, want ErrShape", name, err)
		}
	}
}

// TestTiledPathAllocations pins Matrix and Accumulate to O(panels)
// allocations per call — the output, the row norms, the pool fan-out, a
// panel or the pack when sync.Pool has dropped one (it does at random under
// -race) — and not several per row tile, which is what an assembly stub
// without //go:noescape costs (the tile's row arrays and edge buffer: 686 a
// call on this shape).
func TestTiledPathAllocations(t *testing.T) {
	x := randomSamples(t, 3, 1000, 64)
	support := randomSamples(t, 4, 250, 64)
	coef := sparseCoef(support.Rows)
	dst := make([]float64, x.Rows)
	k := RBF{Gamma: 1.0 / 64}
	bound := 4 * float64((x.Rows+panelRows-1)/panelRows)
	if n := testing.AllocsPerRun(5, func() {
		if _, err := Matrix(k, x, support); err != nil {
			t.Fatal(err)
		}
	}); n > bound {
		t.Errorf("Matrix: %.0f allocations per call, want at most %.0f (four per panel)", n, bound)
	}
	if n := testing.AllocsPerRun(5, func() {
		if err := Accumulate(k, x, support, coef, dst); err != nil {
			t.Fatal(err)
		}
	}); n > bound {
		t.Errorf("Accumulate: %.0f allocations per call, want at most %.0f (four per panel)", n, bound)
	}
}

// poolKeeps reports whether a sync.Pool hands back what was just put in it.
// It does, except under the race detector, which drops a quarter of all Puts.
func poolKeeps() bool {
	var p sync.Pool
	x := new(int)
	for i := 0; i < 64; i++ {
		p.Put(x)
		if p.Get() != x {
			return false
		}
	}
	return true
}

// TestAccumulateSteadyStateAllocations pins the accuracy probe of vk_scores
// (four learners' 600 × 16 blocks scoring 600 eval rows, RBF) at one worker:
// over consecutive calls the support's pack, the norms and the dot panels
// come back from the scratch pool, so a call allocates its two closures and
// nothing else. A pack made per call — a pack scratch without its pool,
// +4.7 % allocations per vk_scores round — fails it.
func TestAccumulateSteadyStateAllocations(t *testing.T) {
	if !poolKeeps() {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	x, support := randomSamples(t, 5, 600, 16), randomSamples(t, 6, 600, 16)
	coef := make([]float64, support.Rows)
	for j := range coef {
		coef[j] = 1 / float64(j+1)
	}
	dst := make([]float64, x.Rows)
	var k Kernel = RBF{Gamma: 1.0 / 16} // boxed once, as a model holds it
	const calls, perCall = 4, 2
	if n := testing.AllocsPerRun(50, func() {
		for c := 0; c < calls; c++ {
			if err := Accumulate(k, x, support, coef, dst); err != nil {
				t.Fatal(err)
			}
		}
	}); n > calls*perCall {
		t.Errorf("%d Accumulate calls: %.0f allocations, want at most %d (%d a call: two closures)", calls, n, calls*perCall, perCall)
	}
}

// TestAccumulateGatherAllocatesNoMore pins the gather of nonzero support rows
// to the scratch pool: the hk_landmarks probe gathers on every call (its
// support has zero multipliers), and the rows and their coefficients come
// back from linalg's pool, so a gathering call allocates no more than a dense
// one. A coefficient slice made per call fails it.
func TestAccumulateGatherAllocatesNoMore(t *testing.T) {
	if !poolKeeps() {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	x, support := randomSamples(t, 7, 300, 64), randomSamples(t, 8, 250, 64)
	dense := make([]float64, support.Rows)
	for j := range dense {
		dense[j] = 1 / float64(j+1)
	}
	sparse := sparseCoef(support.Rows)
	dst := make([]float64, x.Rows)
	var k Kernel = RBF{Gamma: 1.0 / 64}
	allocs := func(coef []float64) float64 {
		return testing.AllocsPerRun(50, func() {
			if err := Accumulate(k, x, support, coef, dst); err != nil {
				t.Fatal(err)
			}
		})
	}
	if d, g := allocs(dense), allocs(sparse); g > d {
		t.Errorf("Accumulate: %.0f allocations a gathering call, %.0f a dense one", g, d)
	}
}

package consensus

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/eval"
	"github.com/ppml-go/ppml/internal/kernel"
	"github.com/ppml-go/ppml/internal/partition"
	"github.com/ppml-go/ppml/internal/svm"
)

func verticalParts(t *testing.T, train *dataset.Dataset, m int, seed int64) ([]*dataset.Dataset, [][]int) {
	t.Helper()
	parts, cols, err := partition.Vertical(train, m, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return parts, cols
}

func TestVLValidation(t *testing.T) {
	d := dataset.TwoGaussians("g", 60, 6, 3, 1)
	parts, cols := verticalParts(t, d, 2, 1)
	if _, _, err := TrainVerticalLinear(context.Background(), parts, cols[:1], Config{C: 1, Rho: 1}); !errors.Is(err, ErrBadPartition) {
		t.Errorf("cols mismatch: err = %v, want ErrBadPartition", err)
	}
	if _, _, err := TrainVerticalLinear(context.Background(), nil, nil, Config{C: 1, Rho: 1}); !errors.Is(err, ErrBadPartition) {
		t.Errorf("no parts: err = %v, want ErrBadPartition", err)
	}
	// Labels must be shared identically.
	bad := []*dataset.Dataset{parts[0].Clone(), parts[1].Clone()}
	bad[1].Y[0] = -bad[1].Y[0]
	if _, _, err := TrainVerticalLinear(context.Background(), bad, cols, Config{C: 1, Rho: 1}); !errors.Is(err, ErrBadPartition) {
		t.Errorf("divergent labels: err = %v, want ErrBadPartition", err)
	}
}

func TestVLReachesCentralizedAccuracy(t *testing.T) {
	d := dataset.TwoGaussians("g", 300, 8, 3.2, 21)
	train, test := splitAndScale(t, d)
	central, err := svm.Train(train.X, train.Y, svm.Params{C: 50})
	if err != nil {
		t.Fatal(err)
	}
	accC, err := eval.ClassifierAccuracy(central, test)
	if err != nil {
		t.Fatal(err)
	}
	parts, cols := verticalParts(t, train, 4, 3)
	model, h, err := TrainVerticalLinear(context.Background(), parts, cols, Config{
		C: 50, Rho: 100, MaxIterations: 100, EvalSet: test,
	})
	if err != nil {
		t.Fatal(err)
	}
	accM, err := eval.ClassifierAccuracy(model, test)
	if err != nil {
		t.Fatal(err)
	}
	if accM < accC-0.05 {
		t.Errorf("vertical consensus accuracy %.3f, centralized %.3f", accM, accC)
	}
	first, last := h.DeltaZSq[0], h.DeltaZSq[len(h.DeltaZSq)-1]
	if last > first/10 {
		t.Errorf("Δz² did not decay: first %g, last %g", first, last)
	}
	if len(model.W) != train.Features() {
		t.Errorf("assembled W has %d entries, want %d", len(model.W), train.Features())
	}
}

func TestVLSingleLearnerMatchesCentralizedDirection(t *testing.T) {
	d := dataset.TwoGaussians("g", 200, 5, 3, 23)
	train, test := splitAndScale(t, d)
	parts, cols := verticalParts(t, train, 1, 1)
	model, _, err := TrainVerticalLinear(context.Background(), parts, cols, Config{C: 10, Rho: 50, MaxIterations: 150})
	if err != nil {
		t.Fatal(err)
	}
	central, err := svm.Train(train.X, train.Y, svm.Params{C: 10})
	if err != nil {
		t.Fatal(err)
	}
	accC, err := eval.ClassifierAccuracy(central, test)
	if err != nil {
		t.Fatal(err)
	}
	accM, err := eval.ClassifierAccuracy(model, test)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(accC-accM) > 0.05 {
		t.Errorf("M=1 vertical accuracy %g vs centralized %g", accM, accC)
	}
}

func TestVLDistributedMatchesLocal(t *testing.T) {
	d := dataset.TwoGaussians("g", 120, 6, 3, 29)
	train, _ := splitAndScale(t, d)
	cfg := Config{C: 10, Rho: 50, MaxIterations: 20}

	parts, cols := verticalParts(t, train, 3, 7)
	local, _, err := TrainVerticalLinear(context.Background(), parts, cols, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgDist := cfg
	cfgDist.Distributed = true
	partsD, colsD := verticalParts(t, train, 3, 7)
	dist, _, err := TrainVerticalLinear(context.Background(), partsD, colsD, cfgDist)
	if err != nil {
		t.Fatal(err)
	}
	for j := range local.W {
		if math.Abs(local.W[j]-dist.W[j]) > 1e-5 {
			t.Errorf("W[%d]: local %g vs distributed %g", j, local.W[j], dist.W[j])
		}
	}
	if math.Abs(local.B-dist.B) > 1e-5 {
		t.Errorf("B: local %g vs distributed %g", local.B, dist.B)
	}
}

func TestVKSolvesNonlinearTask(t *testing.T) {
	// Radial task spread over two feature owners: additive per-block RBF
	// kernels can express x² + y² separations.
	d := nonlinearRings(300, 31)
	train, test, err := d.Split(0.5)
	if err != nil {
		t.Fatal(err)
	}
	parts, cols := verticalParts(t, train, 2, 5)
	model, h, err := TrainVerticalKernel(context.Background(), parts, cols, Config{
		C: 50, Rho: 20, MaxIterations: 60,
		Kernel: kernel.RBF{Gamma: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := eval.ClassifierAccuracy(model, test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 {
		t.Errorf("vertical kernel on rings accuracy = %g, want ≥ 0.85", acc)
	}
	if h.DeltaZSq[len(h.DeltaZSq)-1] > h.DeltaZSq[0]/10 {
		t.Error("VK Δz² did not decay")
	}
}

func TestVKNeedsKernel(t *testing.T) {
	d := dataset.TwoGaussians("g", 40, 4, 3, 1)
	parts, cols := verticalParts(t, d, 2, 1)
	for _, k := range []kernel.Kernel{nil, kernel.RBF{Gamma: math.NaN()}} {
		if _, _, err := TrainVerticalKernel(context.Background(), parts, cols, Config{C: 1, Rho: 1, Kernel: k}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("kernel %v: err = %v, want ErrBadConfig", k, err)
		}
	}
}

func TestVKDistributedMatchesLocal(t *testing.T) {
	d := dataset.TwoGaussians("g", 100, 4, 3, 37)
	train, _ := splitAndScale(t, d)
	cfg := Config{C: 10, Rho: 20, MaxIterations: 15, Kernel: kernel.RBF{Gamma: 0.5}}

	parts, cols := verticalParts(t, train, 2, 9)
	local, _, err := TrainVerticalKernel(context.Background(), parts, cols, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgDist := cfg
	cfgDist.Distributed = true
	partsD, colsD := verticalParts(t, train, 2, 9)
	dist, _, err := TrainVerticalKernel(context.Background(), partsD, colsD, cfgDist)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < train.Len(); i++ {
		dl := local.Decision(train.X.Row(i))
		dd := dist.Decision(train.X.Row(i))
		if math.Abs(dl-dd) > 1e-4*(1+math.Abs(dl)) {
			t.Fatalf("decision differs at %d: %g vs %g", i, dl, dd)
		}
	}
}

// TestVKLearnerHoldsOneMatrix is the memory half of the solve-derived scores:
// a VK learner retains the factor L of its chunk's n_c × n_c block and O(N)
// vectors, and no kernel strip. The live heap is read after two collections,
// so pooled scratch (which the second one frees) does not count.
func TestVKLearnerHoldsOneMatrix(t *testing.T) {
	const n = 400
	d := dataset.TwoGaussians("g", n, 16, 3, 5)
	state := make([]float64, n)
	for _, chunkRows := range []int{0, n / 4} {
		cfg, err := Config{C: 10, Rho: 100, Kernel: kernel.RBF{Gamma: 1.0 / 16}, ChunkRows: chunkRows}.normalized()
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		mp, err := newVKMapper(d, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for iter := 0; iter < 3; iter++ {
			if _, err := mp.Contribution(iter, state); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(mp)
		nc := mp.sched.chunkRows
		held := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(nc*nc*8)
		if held >= 1.25 {
			t.Errorf("ChunkRows %d: a learner retains %.2f·n_c²·8 bytes, want < 1.25 (L only)", chunkRows, held)
		}
		t.Logf("ChunkRows %d: a learner retains %.2f·n_c²·8 bytes (n_c = %d)", chunkRows, held, nc)
	}
}

// TestVKScoresMatchKernelStrip pins the identity the learner reports its
// scores by: (K·α)|_c = q − y + off_c must equal K(X_c, X)·α evaluated
// directly, round after round, on one chunk and on several (where chunks are
// left and revisited).
func TestVKScoresMatchKernelStrip(t *testing.T) {
	const n, rounds = 150, 6
	d := dataset.TwoGaussians("g", n, 5, 3, 7)
	rng := rand.New(rand.NewSource(3))
	state := make([]float64, n)
	for _, chunkRows := range []int{0, n / 3} {
		cfg, err := Config{C: 10, Rho: 20, Kernel: kernel.RBF{Gamma: 0.5}, ChunkRows: chunkRows}.normalized()
		if err != nil {
			t.Fatal(err)
		}
		mp, err := newVKMapper(d, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for iter := 0; iter < rounds; iter++ {
			for j := range state {
				state[j] = rng.NormFloat64()
			}
			contrib, err := mp.Contribution(iter, state)
			if err != nil {
				t.Fatal(err)
			}
			_, lo, hi := mp.sched.chunk(iter)
			strip, err := kernel.Matrix(cfg.Kernel, rowView(d.X, lo, hi), d.X)
			if err != nil {
				t.Fatal(err)
			}
			want, err := strip.MulVec(mp.alpha, nil)
			if err != nil {
				t.Fatal(err)
			}
			var diff, scale float64
			for i, w := range want {
				diff = max(diff, math.Abs(contrib[lo+i]-w))
				scale = max(scale, math.Abs(w))
			}
			if diff > 1e-9*scale {
				t.Errorf("ChunkRows %d round %d: reported scores differ from K(X_c, X)·α by %g (max |K·α| %g)", chunkRows, iter, diff, scale)
			}
		}
	}
}

func TestVerticalAccuracyHistoryRecorded(t *testing.T) {
	d := dataset.TwoGaussians("g", 150, 6, 3, 41)
	train, test := splitAndScale(t, d)
	parts, cols := verticalParts(t, train, 3, 11)
	_, h, err := TrainVerticalLinear(context.Background(), parts, cols, Config{
		C: 50, Rho: 100, MaxIterations: 30, EvalSet: test,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Accuracy) != h.Iterations {
		t.Fatalf("accuracy history %d entries for %d iterations", len(h.Accuracy), h.Iterations)
	}
	if h.Accuracy[len(h.Accuracy)-1] < 0.85 {
		t.Errorf("final accuracy = %g, want ≥ 0.85", h.Accuracy[len(h.Accuracy)-1])
	}
}

func TestVLTolStopsEarly(t *testing.T) {
	d := dataset.TwoGaussians("g", 100, 5, 4, 43)
	train, _ := splitAndScale(t, d)
	parts, cols := verticalParts(t, train, 2, 13)
	// Vertical consensus converges slowly (the paper's Fig. 4(c) shows the
	// same), so pick a tolerance reachable well before the cap.
	_, h, err := TrainVerticalLinear(context.Background(), parts, cols, Config{
		C: 10, Rho: 100, MaxIterations: 500, Tol: 1e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !h.Converged {
		t.Error("expected convergence before the cap")
	}
	if h.Iterations >= 500 {
		t.Errorf("ran all %d iterations despite Tol", h.Iterations)
	}
}

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

// TestVKLearnerHoldsTwoMatrices is the memory half of the in-place factor: a
// VK learner on one chunk of N rows allocates the Gram strip K and the factor
// L, N × N each, where factoring a copy of I + ρK held a third.
func TestVKLearnerHoldsTwoMatrices(t *testing.T) {
	const n = 400
	d := dataset.TwoGaussians("g", n, 16, 3, 5)
	cfg, err := Config{C: 10, Rho: 100, Kernel: kernel.RBF{Gamma: 1.0 / 16}}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mp, err := newVKMapper(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mp.Contribution(0, make([]float64, n)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const nn = n * n * 8
	grew := float64(after.TotalAlloc-before.TotalAlloc) / nn
	if grew >= 2.5 {
		t.Errorf("mapper construction and one round allocated %.2f·N²·8 bytes, want < 2.5 (K and L)", grew)
	}
	t.Logf("mapper construction and one round allocated %.2f·N²·8 bytes", grew)
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

func TestBiasFromScores(t *testing.T) {
	// Free SV at index 0: y=+1, score 0.4 → b = 0.6.
	b := biasFromScores([]float64{0.4, 2, -3}, []float64{1, 1, -1}, []float64{0.5, 0, 0}, 1)
	if math.Abs(b-0.6) > 1e-12 {
		t.Errorf("bias = %g, want 0.6", b)
	}
	// No free SVs: midpoint of feasible interval.
	// y=+1, λ=0, score 0.5 → b ≥ 0.5; y=−1, λ=0, score −2 → b ≤ 1.
	b = biasFromScores([]float64{0.5, -2}, []float64{1, -1}, []float64{0, 0}, 1)
	if math.Abs(b-0.75) > 1e-12 {
		t.Errorf("midpoint bias = %g, want 0.75", b)
	}
	// Degenerate: nothing known.
	if b := biasFromScores(nil, nil, nil, 1); b != 0 {
		t.Errorf("empty bias = %g, want 0", b)
	}
}

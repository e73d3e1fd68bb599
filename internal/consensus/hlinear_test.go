package consensus

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/eval"
	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/partition"
	"github.com/ppml-go/ppml/internal/svm"
)

// splitAndScale prepares a dataset the way Section VI does: 50/50 split,
// standardized on the training statistics.
func splitAndScale(t *testing.T, d *dataset.Dataset) (train, test *dataset.Dataset) {
	t.Helper()
	train, test, err := d.Split(0.5)
	if err != nil {
		t.Fatal(err)
	}
	s := dataset.FitScaler(train)
	if err := s.Apply(train); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(test); err != nil {
		t.Fatal(err)
	}
	return train, test
}

func horizontalParts(t *testing.T, train *dataset.Dataset, m int, seed int64) []*dataset.Dataset {
	t.Helper()
	parts, _, err := partition.Horizontal(train, m, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return parts
}

func TestHLConfigValidation(t *testing.T) {
	d := dataset.TwoGaussians("g", 40, 3, 3, 1)
	parts := horizontalParts(t, d, 2, 1)
	if _, _, err := TrainHorizontalLinear(context.Background(), parts, Config{Rho: 1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("C missing: err = %v, want ErrBadConfig", err)
	}
	if _, _, err := TrainHorizontalLinear(context.Background(), parts, Config{C: 1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Rho missing: err = %v, want ErrBadConfig", err)
	}
	if _, _, err := TrainHorizontalLinear(context.Background(), nil, Config{C: 1, Rho: 1}); !errors.Is(err, ErrBadPartition) {
		t.Errorf("no parts: err = %v, want ErrBadPartition", err)
	}
	bad := []*dataset.Dataset{parts[0], dataset.TwoGaussians("g", 10, 5, 1, 2)}
	if _, _, err := TrainHorizontalLinear(context.Background(), bad, Config{C: 1, Rho: 1}); !errors.Is(err, ErrBadPartition) {
		t.Errorf("feature mismatch: err = %v, want ErrBadPartition", err)
	}
}

func TestHLSingleLearnerMatchesCentralized(t *testing.T) {
	// With M = 1, consensus ADMM must converge to the centralized SVM.
	d := dataset.TwoGaussians("g", 120, 4, 3, 7)
	train, test := splitAndScale(t, d)
	central, err := svm.Train(train.X, train.Y, svm.Params{C: 10})
	if err != nil {
		t.Fatal(err)
	}
	model, h, err := TrainHorizontalLinear(context.Background(), []*dataset.Dataset{train}, Config{
		C: 10, Rho: 1, MaxIterations: 200, Tol: 1e-12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !h.Converged {
		t.Fatalf("did not converge; last Δz² = %g", h.DeltaZSq[len(h.DeltaZSq)-1])
	}
	// Compare normalized weight directions (scale-invariant agreement).
	cw := linalg.CopyVec(central.W)
	mw := linalg.CopyVec(model.W)
	linalg.Scale(1/linalg.Norm2(cw), cw)
	linalg.Scale(1/linalg.Norm2(mw), mw)
	if cos := linalg.Dot(cw, mw); cos < 0.999 {
		t.Errorf("weight direction cosine = %g, want ≈ 1", cos)
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
		t.Errorf("consensus accuracy %g vs centralized %g", accM, accC)
	}
}

func TestHLFourLearnersReachesCentralizedAccuracy(t *testing.T) {
	// The paper's headline claim, at its parameters (M=4, C=50, ρ=100).
	d := dataset.SyntheticCancer(400, 3)
	train, test := splitAndScale(t, d)
	central, err := svm.Train(train.X, train.Y, svm.Params{C: 50})
	if err != nil {
		t.Fatal(err)
	}
	accC, err := eval.ClassifierAccuracy(central, test)
	if err != nil {
		t.Fatal(err)
	}
	parts := horizontalParts(t, train, 4, 5)
	model, h, err := TrainHorizontalLinear(context.Background(), parts, Config{
		C: 50, Rho: 100, MaxIterations: 60, EvalSet: test,
	})
	if err != nil {
		t.Fatal(err)
	}
	accM, err := eval.ClassifierAccuracy(model, test)
	if err != nil {
		t.Fatal(err)
	}
	if accM < accC-0.04 {
		t.Errorf("consensus accuracy %.3f below centralized %.3f", accM, accC)
	}
	// Δz² must shrink by orders of magnitude over the run (Fig. 4a shape).
	first, last := h.DeltaZSq[0], h.DeltaZSq[len(h.DeltaZSq)-1]
	if last > first/100 {
		t.Errorf("Δz² did not decay: first %g, last %g", first, last)
	}
	if len(h.Accuracy) != h.Iterations {
		t.Errorf("accuracy history has %d entries for %d iterations", len(h.Accuracy), h.Iterations)
	}
	// Accuracy in late iterations should be near final.
	if lateAcc := h.Accuracy[len(h.Accuracy)-1]; math.Abs(lateAcc-accM) > 1e-9 {
		t.Errorf("final history accuracy %g differs from model accuracy %g", lateAcc, accM)
	}
}

func TestHLDistributedMatchesLocal(t *testing.T) {
	d := dataset.TwoGaussians("g", 160, 5, 3, 11)
	train, test := splitAndScale(t, d)
	parts := horizontalParts(t, train, 3, 9)
	cfg := Config{C: 10, Rho: 50, MaxIterations: 25}

	local, _, err := TrainHorizontalLinear(context.Background(), parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgDist := cfg
	cfgDist.Distributed = true
	distParts := horizontalParts(t, train, 3, 9) // fresh mapper state
	dist, _, err := TrainHorizontalLinear(context.Background(), distParts, cfgDist)
	if err != nil {
		t.Fatal(err)
	}
	// Fixed-point masking rounds at 2^-30; allow that noise accumulated.
	for j := range local.W {
		if math.Abs(local.W[j]-dist.W[j]) > 1e-5 {
			t.Errorf("W[%d]: local %g vs distributed %g", j, local.W[j], dist.W[j])
		}
	}
	if math.Abs(local.B-dist.B) > 1e-5 {
		t.Errorf("B: local %g vs distributed %g", local.B, dist.B)
	}
	accL, err := eval.ClassifierAccuracy(local, test)
	if err != nil {
		t.Fatal(err)
	}
	accD, err := eval.ClassifierAccuracy(dist, test)
	if err != nil {
		t.Fatal(err)
	}
	if accL != accD {
		t.Errorf("accuracy: local %g vs distributed %g", accL, accD)
	}
}

func TestHLPaperSplitRuns(t *testing.T) {
	// The fidelity mode must run and converge in z, with the documented
	// frozen-bias defect (see package doc); on centered data it still
	// reaches useful accuracy.
	d := dataset.TwoGaussians("g", 160, 4, 4, 13)
	train, test := splitAndScale(t, d)
	parts := horizontalParts(t, train, 4, 13)
	model, h, err := TrainHorizontalLinear(context.Background(), parts, Config{
		C: 50, Rho: 100, MaxIterations: 40, PaperSplit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(model.B) > 1e-9 {
		t.Errorf("paper-split bias = %g; eq. (12)+(13d) as printed freeze it at 0", model.B)
	}
	acc, err := eval.ClassifierAccuracy(model, test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Errorf("paper-split accuracy on centered separable data = %g, want ≥ 0.9", acc)
	}
	if h.DeltaZSq[len(h.DeltaZSq)-1] > h.DeltaZSq[0] {
		t.Error("paper-split Δz² grew")
	}
}

package eval_test

import (
	"context"
	"math/rand"
	"testing"

	"github.com/ppml-go/ppml/internal/consensus"
	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/eval"
	"github.com/ppml-go/ppml/internal/kernel"
	"github.com/ppml-go/ppml/internal/partition"
	"github.com/ppml-go/ppml/internal/svm"
)

// predictOnly hides a model's batch method, so ClassifierAccuracy takes the
// per-row Predict loop.
type predictOnly struct{ eval.Classifier }

// TestClassifierAccuracyBatchMatchesPerRow trains the three kernel models on
// the benchmark's ocr shape (64 standardized features, RBF γ = 1/64, C = 50,
// ρ = 100, 30 landmarks, 4 learners, a 50/50 split) and requires the batch
// path to return the very ratio the per-row path does.
func TestClassifierAccuracyBatchMatchesPerRow(t *testing.T) {
	train, test, err := dataset.SyntheticOCR(1200, 1).Split(0.5)
	if err != nil {
		t.Fatal(err)
	}
	sc := dataset.FitScaler(train)
	for _, d := range []*dataset.Dataset{train, test} {
		if err := sc.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	cfg := consensus.Config{
		C: 50, Rho: 100, MaxIterations: 3, Landmarks: 30, Seed: 1,
		Kernel: kernel.RBF{Gamma: 1 / float64(train.Features())},
	}
	ctx := context.Background()
	models := map[string]eval.Classifier{}

	rows, _, err := partition.Horizontal(train, 4, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if models["hk"], _, err = consensus.TrainHorizontalKernel(ctx, rows, cfg); err != nil {
		t.Fatal(err)
	}
	blocks, cols, err := partition.Vertical(train, 4, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if models["vk"], _, err = consensus.TrainVerticalKernel(ctx, blocks, cols, cfg); err != nil {
		t.Fatal(err)
	}
	if models["svm"], err = svm.Train(train.X, train.Y, svm.Params{C: cfg.C, Kernel: cfg.Kernel}); err != nil {
		t.Fatal(err)
	}

	for name, m := range models {
		batch, err := eval.ClassifierAccuracy(m, test)
		if err != nil {
			t.Fatal(err)
		}
		perRow, err := eval.ClassifierAccuracy(predictOnly{m}, test)
		if err != nil {
			t.Fatal(err)
		}
		if batch != perRow {
			t.Errorf("%s: batch path scores %v, per-row path %v", name, batch, perRow)
		}
		if batch < 0.9 {
			t.Errorf("%s: accuracy %v, the comparison needs a trained model", name, batch)
		}
	}
}

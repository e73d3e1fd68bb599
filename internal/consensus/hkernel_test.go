package consensus

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/eval"
	"github.com/ppml-go/ppml/internal/kernel"
	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/svm"
)

func TestHKNeedsKernel(t *testing.T) {
	d := dataset.TwoGaussians("g", 40, 3, 3, 1)
	parts := horizontalParts(t, d, 2, 1)
	for _, k := range []kernel.Kernel{nil, kernel.RBF{Gamma: -1}, kernel.Polynomial{A: 1, Degree: 0}} {
		if _, _, err := TrainHorizontalKernel(context.Background(), parts, Config{C: 1, Rho: 1, Kernel: k}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("kernel %v: err = %v, want ErrBadConfig", k, err)
		}
	}
}

// nonlinearRings builds a radially separable task: class +1 inside radius 1,
// class −1 in an annulus — hopeless for a linear SVM, easy for RBF.
func nonlinearRings(n int, seed int64) *dataset.Dataset {
	d := dataset.TwoGaussians("rings", n, 2, 0, seed) // reuse shuffling; rebuild below
	inner := 0
	for i := 0; i < n; i++ {
		row := d.X.Row(i)
		var r float64
		if i%2 == 0 {
			r = 0.5 * math.Sqrt(float64(i%100)/100.0)
			d.Y[i] = 1
			inner++
		} else {
			r = 1.5 + 0.5*float64(i%100)/100.0
			d.Y[i] = -1
		}
		theta := float64(i) * 2.399963 // golden-angle spiral coverage
		row[0] = r * math.Cos(theta)
		row[1] = r * math.Sin(theta)
	}
	return d
}

func TestHKSolvesNonlinearTask(t *testing.T) {
	d := nonlinearRings(240, 3)
	train, test, err := d.Split(0.5)
	if err != nil {
		t.Fatal(err)
	}
	parts := horizontalParts(t, train, 3, 7)
	model, h, err := TrainHorizontalKernel(context.Background(), parts, Config{
		C: 50, Rho: 10, MaxIterations: 30, Landmarks: 25,
		Kernel: kernel.RBF{Gamma: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := eval.ClassifierAccuracy(model, test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Errorf("RBF consensus on rings accuracy = %g, want ≥ 0.9", acc)
	}
	// Linear consensus must fail on this task (sanity that the task is
	// genuinely nonlinear).
	linModel, _, err := TrainHorizontalLinear(context.Background(), parts, Config{C: 50, Rho: 10, MaxIterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	linAcc, err := eval.ClassifierAccuracy(linModel, test)
	if err != nil {
		t.Fatal(err)
	}
	if linAcc > 0.75 {
		t.Errorf("linear model on rings = %g; task is not nonlinear enough", linAcc)
	}
	if h.DeltaZSq[len(h.DeltaZSq)-1] > h.DeltaZSq[0] {
		t.Error("Δz² grew over training")
	}
}

func TestHKApproachesCentralizedKernelSVM(t *testing.T) {
	d := dataset.SyntheticOCR(400, 5)
	train, test := splitAndScale(t, d)
	central, err := svm.Train(train.X, train.Y, svm.Params{C: 50, Kernel: kernel.RBF{Gamma: 0.02}})
	if err != nil {
		t.Fatal(err)
	}
	accC, err := eval.ClassifierAccuracy(central, test)
	if err != nil {
		t.Fatal(err)
	}
	parts := horizontalParts(t, train, 4, 3)
	model, _, err := TrainHorizontalKernel(context.Background(), parts, Config{
		C: 50, Rho: 10, MaxIterations: 40, Landmarks: 40,
		Kernel: kernel.RBF{Gamma: 0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	accM, err := eval.ClassifierAccuracy(model, test)
	if err != nil {
		t.Fatal(err)
	}
	// The landmark projection is an approximation (Lemma 4.4 discussion);
	// allow a modest gap to the centralized kernel benchmark.
	if accM < accC-0.08 {
		t.Errorf("kernel consensus accuracy %.3f, centralized %.3f", accM, accC)
	}
}

func TestHKDistributedMatchesLocal(t *testing.T) {
	d := nonlinearRings(160, 9)
	train, test, err := d.Split(0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		C: 10, Rho: 5, MaxIterations: 12, Landmarks: 15,
		Kernel: kernel.RBF{Gamma: 1},
	}
	local, _, err := TrainHorizontalKernel(context.Background(), horizontalParts(t, train, 3, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgDist := cfg
	cfgDist.Distributed = true
	dist, _, err := TrainHorizontalKernel(context.Background(), horizontalParts(t, train, 3, 4), cfgDist)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < test.Len(); i++ {
		dl := local.Decision(test.X.Row(i))
		dd := dist.Decision(test.X.Row(i))
		if math.Abs(dl-dd) > 1e-4*(1+math.Abs(dl)) {
			t.Fatalf("decision differs at %d: local %g vs distributed %g", i, dl, dd)
		}
	}
}

func TestHKPerLearnerModelsAgree(t *testing.T) {
	// After consensus, the learners' individual discriminants should mostly
	// agree on confident test points.
	d := nonlinearRings(200, 11)
	train, test, err := d.Split(0.5)
	if err != nil {
		t.Fatal(err)
	}
	parts := horizontalParts(t, train, 4, 8)
	model, _, err := TrainHorizontalKernel(context.Background(), parts, Config{
		C: 50, Rho: 10, MaxIterations: 30, Landmarks: 25,
		Kernel: kernel.RBF{Gamma: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Learner m's f_m is a model of its slices alone.
	scores := make([][]float64, len(model.B))
	for m := range scores {
		learner := &KernelHorizontalModel{
			Kernel: model.Kernel, Landmarks: model.Landmarks,
			SupportX: model.SupportX[m : m+1], CoefX: model.CoefX[m : m+1],
			CoefG: model.CoefG[m : m+1], B: model.B[m : m+1],
		}
		if scores[m], err = learner.Decisions(test.X, nil); err != nil {
			t.Fatal(err)
		}
	}
	agree := 0
	for i := 0; i < test.Len(); i++ {
		all := true
		first := scores[0][i] >= 0
		for m := 1; m < len(scores); m++ {
			if (scores[m][i] >= 0) != first {
				all = false
				break
			}
		}
		if all {
			agree++
		}
	}
	if ratio := float64(agree) / float64(test.Len()); ratio < 0.85 {
		t.Errorf("per-learner agreement = %g, want ≥ 0.85", ratio)
	}
}

func TestHKAccuracyHistoryImproves(t *testing.T) {
	d := nonlinearRings(200, 13)
	train, test, err := d.Split(0.5)
	if err != nil {
		t.Fatal(err)
	}
	parts := horizontalParts(t, train, 3, 5)
	_, h, err := TrainHorizontalKernel(context.Background(), parts, Config{
		C: 50, Rho: 10, MaxIterations: 25, Landmarks: 20,
		Kernel:  kernel.RBF{Gamma: 1},
		EvalSet: test,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Accuracy) != h.Iterations {
		t.Fatalf("accuracy history %d entries for %d iterations", len(h.Accuracy), h.Iterations)
	}
	if last := h.Accuracy[len(h.Accuracy)-1]; last < 0.85 {
		t.Errorf("final per-iteration accuracy = %g, want ≥ 0.85", last)
	}
}

func TestHKLandmarksAreNotTrainingData(t *testing.T) {
	// Privacy: landmark points are synthetic, not rows of any partition.
	d := dataset.TwoGaussians("g", 80, 3, 3, 17)
	parts := horizontalParts(t, d, 2, 2)
	model, _, err := TrainHorizontalKernel(context.Background(), parts, Config{
		C: 10, Rho: 5, MaxIterations: 5, Landmarks: 10,
		Kernel: kernel.RBF{Gamma: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < model.Landmarks.Rows; g++ {
		lm := model.Landmarks.Row(g)
		for _, p := range parts {
			for i := 0; i < p.Len(); i++ {
				if linalg.Dist2Sq(lm, p.X.Row(i)) < 1e-18 {
					t.Fatalf("landmark %d equals a private training row", g)
				}
			}
		}
	}
}

func TestHKRespectsLandmarkCount(t *testing.T) {
	d := dataset.TwoGaussians("g", 60, 3, 3, 71)
	parts := horizontalParts(t, d, 2, 2)
	model, _, err := TrainHorizontalKernel(context.Background(), parts, Config{
		C: 10, Rho: 5, MaxIterations: 3, Landmarks: 7,
		Kernel: kernel.RBF{Gamma: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if model.Landmarks.Rows != 7 {
		t.Errorf("landmark count = %d, want 7", model.Landmarks.Rows)
	}
	for m := range model.B {
		if len(model.CoefG[m]) != 7 {
			t.Errorf("learner %d has %d landmark coefficients", m, len(model.CoefG[m]))
		}
	}
}

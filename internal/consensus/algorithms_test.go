package consensus

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/eval"
	"github.com/ppml-go/ppml/internal/svm"
)

func TestLogisticConsensusReachesSVMAccuracy(t *testing.T) {
	d := dataset.SyntheticCancer(400, 13)
	train, test := splitAndScale(t, d)
	// SVM reference.
	ref, err := svm.Train(train.X, train.Y, svm.Params{C: 1})
	if err != nil {
		t.Fatal(err)
	}
	refAcc, err := eval.ClassifierAccuracy(ref, test)
	if err != nil {
		t.Fatal(err)
	}
	parts := horizontalParts(t, train, 4, 5)
	model, h, err := TrainHorizontalLogistic(context.Background(), parts, Config{
		C: 1, Rho: 10, MaxIterations: 40, EvalSet: test,
	})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := eval.ClassifierAccuracy(model, test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < refAcc-0.04 {
		t.Errorf("logistic consensus accuracy %.3f vs SVM %.3f", acc, refAcc)
	}
	if h.DeltaZSq[len(h.DeltaZSq)-1] > h.DeltaZSq[0]/100 {
		t.Errorf("logistic Δz² did not decay: %g → %g", h.DeltaZSq[0], h.DeltaZSq[len(h.DeltaZSq)-1])
	}
	if len(h.Accuracy) != h.Iterations {
		t.Error("accuracy history incomplete")
	}
}

func TestLogisticProbabilityCalibratedDirectionally(t *testing.T) {
	d := dataset.TwoGaussians("g", 300, 3, 4, 19)
	train, test := splitAndScale(t, d)
	parts := horizontalParts(t, train, 2, 3)
	model, _, err := TrainHorizontalLogistic(context.Background(), parts, Config{C: 1, Rho: 10, MaxIterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	// Predictions must be mostly confident on this well-separated data:
	// P(y = +1 | x) = σ(wᵀx + b) outside (0.1, 0.9), i.e. |wᵀx + b| > ln 9.
	confident := 0
	for i := 0; i < test.Len(); i++ {
		if math.Abs(model.Decision(test.X.Row(i))) > math.Log(9) {
			confident++
		}
	}
	if ratio := float64(confident) / float64(test.Len()); ratio < 0.7 {
		t.Errorf("only %.2f of predictions confident on separable data", ratio)
	}
}

func TestLogisticDistributedMatchesLocal(t *testing.T) {
	d := dataset.TwoGaussians("g", 150, 4, 3, 23)
	train, _ := splitAndScale(t, d)
	cfg := Config{C: 1, Rho: 10, MaxIterations: 15}
	local, _, err := TrainHorizontalLogistic(context.Background(), horizontalParts(t, train, 3, 9), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgDist := cfg
	cfgDist.Distributed = true
	dist, _, err := TrainHorizontalLogistic(context.Background(), horizontalParts(t, train, 3, 9), cfgDist)
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

func TestNaiveBayesMatchesCentralizedFit(t *testing.T) {
	d := dataset.SyntheticCancer(300, 29)
	train, test := splitAndScale(t, d)
	parts := horizontalParts(t, train, 4, 11)
	model, h, err := TrainNaiveBayes(context.Background(), parts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if h.Iterations != 1 {
		t.Errorf("NB took %d rounds, want exactly 1", h.Iterations)
	}
	// Centralized reference: fit moments directly on the pooled data.
	k := train.Features()
	var nPos, nNeg float64
	sumP := make([]float64, k)
	sumN := make([]float64, k)
	sqP := make([]float64, k)
	sqN := make([]float64, k)
	for i := 0; i < train.Len(); i++ {
		row := train.X.Row(i)
		if train.Y[i] > 0 {
			nPos++
			for j, v := range row {
				sumP[j] += v
				sqP[j] += v * v
			}
		} else {
			nNeg++
			for j, v := range row {
				sumN[j] += v
				sqN[j] += v * v
			}
		}
	}
	for j := 0; j < k; j++ {
		wantMu := sumP[j] / nPos
		if math.Abs(model.MeanPos[j]-wantMu) > 1e-9 {
			t.Fatalf("MeanPos[%d] = %g, want %g", j, model.MeanPos[j], wantMu)
		}
		wantVar := sqN[j]/nNeg - (sumN[j]/nNeg)*(sumN[j]/nNeg)
		if wantVar >= 1e-9 && math.Abs(model.VarNeg[j]-wantVar) > 1e-9 {
			t.Fatalf("VarNeg[%d] = %g, want %g", j, model.VarNeg[j], wantVar)
		}
	}
	if math.Abs(model.PriorPos-nPos/(nPos+nNeg)) > 1e-12 {
		t.Errorf("PriorPos = %g", model.PriorPos)
	}
	acc, err := eval.ClassifierAccuracy(model, test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 {
		t.Errorf("NB accuracy = %g, want ≥ 0.85", acc)
	}
}

func TestNaiveBayesDistributedSecure(t *testing.T) {
	d := dataset.SyntheticCancer(200, 31)
	train, test := splitAndScale(t, d)
	partsLocal := horizontalParts(t, train, 3, 13)
	local, _, err := TrainNaiveBayes(context.Background(), partsLocal, Config{})
	if err != nil {
		t.Fatal(err)
	}
	partsDist := horizontalParts(t, train, 3, 13)
	dist, _, err := TrainNaiveBayes(context.Background(), partsDist, Config{Distributed: true})
	if err != nil {
		t.Fatal(err)
	}
	for j := range local.MeanPos {
		if math.Abs(local.MeanPos[j]-dist.MeanPos[j]) > 1e-6 {
			t.Errorf("MeanPos[%d]: local %g vs distributed %g", j, local.MeanPos[j], dist.MeanPos[j])
		}
		if math.Abs(local.VarNeg[j]-dist.VarNeg[j]) > 1e-5 {
			t.Errorf("VarNeg[%d]: local %g vs distributed %g", j, local.VarNeg[j], dist.VarNeg[j])
		}
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

func TestNaiveBayesNeedsBothClasses(t *testing.T) {
	d := dataset.TwoGaussians("g", 40, 3, 2, 37)
	for i := range d.Y {
		d.Y[i] = 1 // single class
	}
	parts := horizontalParts(t, d, 2, 1)
	if _, _, err := TrainNaiveBayes(context.Background(), parts, Config{}); !errors.Is(err, ErrBadPartition) {
		t.Errorf("single class: err = %v, want ErrBadPartition", err)
	}
}

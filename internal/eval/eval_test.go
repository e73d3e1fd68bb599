package eval

import (
	"errors"
	"testing"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/linalg"
)

func TestAccuracy(t *testing.T) {
	acc, err := Accuracy([]float64{1, -1, 1, 1}, []float64{1, -1, -1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if acc != 0.75 {
		t.Errorf("Accuracy = %g, want 0.75", acc)
	}
	if _, err := Accuracy([]float64{1}, []float64{1, 1}); !errors.Is(err, ErrBadInput) {
		t.Errorf("mismatched: err = %v, want ErrBadInput", err)
	}
	if _, err := Accuracy(nil, nil); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty: err = %v, want ErrBadInput", err)
	}
}

func TestAccuracyUsesDecisionSign(t *testing.T) {
	// Raw decision values, not just ±1, must work.
	acc, err := Accuracy([]float64{0.3, -2.5}, []float64{1, -1})
	if err != nil {
		t.Fatal(err)
	}
	if acc != 1 {
		t.Errorf("decision-value accuracy = %g, want 1", acc)
	}
}

type signClassifier struct{}

func (signClassifier) Predict(x []float64) float64 {
	if x[0] >= 0 {
		return 1
	}
	return -1
}

func TestClassifierAccuracy(t *testing.T) {
	x, _ := linalg.NewMatrixFrom(4, 1, []float64{1, -1, 2, -0.5})
	d, err := dataset.New("t", x, []float64{1, -1, -1, -1})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := ClassifierAccuracy(signClassifier{}, d)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 0.75 {
		t.Errorf("ClassifierAccuracy = %g, want 0.75", acc)
	}
	empty := &dataset.Dataset{X: linalg.NewMatrix(0, 1)}
	if _, err := ClassifierAccuracy(signClassifier{}, empty); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty: err = %v, want ErrBadInput", err)
	}
}

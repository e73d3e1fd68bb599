package ppml_test

import (
	"context"
	"errors"
	"testing"

	"github.com/ppml-go/ppml"
)

func TestSyntheticOCRDigitsShape(t *testing.T) {
	d := ppml.SyntheticOCRDigits(500, 1)
	if d.Len() != 500 || d.Features() != 64 || d.Classes() != 10 {
		t.Fatalf("shape %dx%d/%d classes", d.Len(), d.Features(), d.Classes())
	}
	seen := map[int]bool{}
	for i := 0; i < d.Len(); i++ {
		c := d.Label(i)
		if c < 0 || c > 9 {
			t.Fatalf("label %d outside 0..9", c)
		}
		seen[c] = true
	}
	if len(seen) != 10 {
		t.Errorf("only %d distinct digits generated", len(seen))
	}
}

func TestTrainMulticlassTenDigitOCR(t *testing.T) {
	// The real task behind the paper's OCR workload: 10-digit recognition,
	// trained privately one-vs-rest over 3 learners.
	data := ppml.SyntheticOCRDigits(900, 3)
	train, test, err := data.Split(0.5)
	if err != nil {
		t.Fatal(err)
	}
	model, err := ppml.TrainMulticlassContext(context.Background(), train, ppml.HorizontalLinear,
		ppml.WithLearners(3), ppml.WithIterations(15))
	if err != nil {
		t.Fatal(err)
	}
	acc, err := ppml.EvaluateMulticlass(model, test)
	if err != nil {
		t.Fatal(err)
	}
	// Chance is 10%; the digit prototypes are well separated.
	if acc < 0.9 {
		t.Errorf("10-digit accuracy = %g, want ≥ 0.9", acc)
	}
}

func TestTrainMulticlassValidation(t *testing.T) {
	if _, err := ppml.TrainMulticlassContext(context.Background(), nil, ppml.HorizontalLinear); !errors.Is(err, ppml.ErrBadRequest) {
		t.Errorf("nil data: err = %v, want ErrBadRequest", err)
	}
	if _, err := ppml.EvaluateMulticlass(nil, nil); !errors.Is(err, ppml.ErrBadRequest) {
		t.Errorf("nil model: err = %v, want ErrBadRequest", err)
	}
}

func TestMulticlassSplit(t *testing.T) {
	d := ppml.SyntheticOCRDigits(100, 2)
	train, test, err := d.Split(0.7)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 70 || test.Len() != 30 {
		t.Errorf("split %d/%d, want 70/30", train.Len(), test.Len())
	}
	if _, _, err := d.Split(0); err == nil {
		t.Error("bad split fraction accepted")
	}
}

func TestTrainMulticlassKernelScheme(t *testing.T) {
	data := ppml.SyntheticOCRDigits(400, 7)
	train, test, err := data.Split(0.5)
	if err != nil {
		t.Fatal(err)
	}
	model, err := ppml.TrainMulticlassContext(context.Background(), train, ppml.HorizontalKernel,
		ppml.WithLearners(2), ppml.WithIterations(8),
		ppml.WithKernel(ppml.RBFKernel(1.0/64)), ppml.WithLandmarks(15))
	if err != nil {
		t.Fatal(err)
	}
	acc, err := ppml.EvaluateMulticlass(model, test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.7 {
		t.Errorf("kernel OvR accuracy = %g, want ≥ 0.7", acc)
	}
}

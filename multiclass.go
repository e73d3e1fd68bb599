package ppml

import (
	"context"
	"fmt"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/linalg"
)

// MulticlassDataset is a data set with integer class labels 0..C-1. The
// binary consensus schemes extend to it one-vs-rest: TrainMulticlassContext
// trains one privacy-preserving binary model per class and classifies by the
// largest decision value — the standard treatment of the original 10-digit
// OCR data the paper evaluates on.
type MulticlassDataset struct {
	inner *dataset.Multiclass
}

// SyntheticOCRDigits generates the 10-class version of the OCR stand-in.
// n ≤ 0 selects the original size (5,620).
func SyntheticOCRDigits(n int, seed int64) *MulticlassDataset {
	return &MulticlassDataset{inner: dataset.SyntheticOCRDigits(n, seed)}
}

// Len returns the number of samples.
func (d *MulticlassDataset) Len() int { return d.inner.Len() }

// Features returns the number of feature attributes.
func (d *MulticlassDataset) Features() int { return d.inner.Features() }

// Classes returns the number of classes.
func (d *MulticlassDataset) Classes() int { return d.inner.NumClasses }

// Label returns sample i's class.
func (d *MulticlassDataset) Label(i int) int { return d.inner.Y[i] }

// Row returns a copy of sample i's features.
func (d *MulticlassDataset) Row(i int) []float64 { return linalg.CopyVec(d.inner.X.Row(i)) }

// Split divides the samples into a training prefix and test remainder.
func (d *MulticlassDataset) Split(frac float64) (train, test *MulticlassDataset, err error) {
	tr, te, err := d.inner.Split(frac)
	if err != nil {
		return nil, nil, fmt.Errorf("ppml: %w", err)
	}
	return &MulticlassDataset{inner: tr}, &MulticlassDataset{inner: te}, nil
}

// MulticlassModel classifies into one of Classes() classes by one-vs-rest.
type MulticlassModel struct {
	models []Model
	scaler *Scaler
}

// PredictClass returns the class with the largest one-vs-rest decision value.
func (m *MulticlassModel) PredictClass(x []float64) int {
	if m.scaler != nil {
		if tx, err := m.scaler.Transform(x); err == nil {
			x = tx
		}
	}
	best, bestVal := 0, m.models[0].Decision(x)
	for c := 1; c < len(m.models); c++ {
		if v := m.models[c].Decision(x); v > bestVal {
			best, bestVal = c, v
		}
	}
	return best
}

// TrainMulticlassContext trains one privacy-preserving one-vs-rest binary
// model per class with the given scheme. Features are standardized once on
// the training data; the returned model standardizes its inputs
// automatically. Cancelling ctx stops between (and inside) the per-class
// binary training runs.
func TrainMulticlassContext(ctx context.Context, data *MulticlassDataset, scheme Scheme, opts ...Option) (*MulticlassModel, error) {
	if data == nil || data.inner == nil {
		return nil, fmt.Errorf("%w: nil data set", ErrBadRequest)
	}
	// One standardization shared by all the binary problems.
	shared := &Dataset{inner: &dataset.Dataset{
		Name: data.inner.Name,
		X:    data.inner.X.Clone(),
		Y:    make([]float64, data.Len()),
	}}
	for i := range shared.inner.Y {
		shared.inner.Y[i] = 1 // placeholder; Binarize overwrites per class
	}
	scaler, err := Standardize(shared)
	if err != nil {
		return nil, err
	}
	out := &MulticlassModel{models: make([]Model, data.inner.NumClasses), scaler: scaler}
	for c := 0; c < data.inner.NumClasses; c++ {
		bin, err := data.inner.Binarize(c)
		if err != nil {
			return nil, fmt.Errorf("ppml: %w", err)
		}
		// Use the pre-standardized features with the per-class labels.
		train := &Dataset{inner: &dataset.Dataset{Name: bin.Name, X: shared.inner.X, Y: bin.Y}}
		res, err := TrainContext(ctx, train, scheme, opts...)
		if err != nil {
			return nil, fmt.Errorf("ppml: class %d: %w", c, err)
		}
		out.models[c] = res.Model
	}
	return out, nil
}

// EvaluateMulticlass returns the fraction of samples whose class is
// predicted correctly. The model's embedded scaler standardizes the raw
// features, so pass unstandardized data.
func EvaluateMulticlass(m *MulticlassModel, d *MulticlassDataset) (float64, error) {
	if m == nil || d == nil || d.inner == nil || d.Len() == 0 {
		return 0, fmt.Errorf("%w: nil or empty input", ErrBadRequest)
	}
	correct := 0
	for i := 0; i < d.Len(); i++ {
		if m.PredictClass(d.inner.X.Row(i)) == d.inner.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(d.Len()), nil
}

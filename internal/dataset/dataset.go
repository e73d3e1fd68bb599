// Package dataset provides the training-data substrate for the experiments
// of Section VI: an in-memory labeled data set type, train/test splitting,
// feature standardization, CSV and LIBSVM loaders, and seeded synthetic
// generators that stand in for the three UCI data sets used by the paper
// (breast cancer, HIGGS, OCR handwritten digits), which cannot be downloaded
// in this offline module.
//
// Each generator is matched to its original on the axes the evaluation
// actually exercises — dimensionality, sample count, class balance and
// separability — as documented in DESIGN.md.
package dataset

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/ppml-go/ppml/internal/linalg"
)

// ErrBadData indicates malformed input to a loader or constructor.
var ErrBadData = errors.New("dataset: bad data")

// Dataset is a labeled binary-classification data set. Rows of X are samples
// and Y holds the matching labels in {−1, +1}.
type Dataset struct {
	Name string
	X    *linalg.Matrix
	Y    []float64
}

// New validates and wraps the given matrix and labels.
func New(name string, x *linalg.Matrix, y []float64) (*Dataset, error) {
	if x == nil {
		return nil, fmt.Errorf("%w: nil feature matrix", ErrBadData)
	}
	if len(y) != x.Rows {
		return nil, fmt.Errorf("%w: %d rows but %d labels", ErrBadData, x.Rows, len(y))
	}
	for i, v := range y {
		if v != 1 && v != -1 {
			return nil, fmt.Errorf("%w: label[%d] = %g, want ±1", ErrBadData, i, v)
		}
	}
	return &Dataset{Name: name, X: x, Y: y}, nil
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return d.X.Rows }

// Features returns the number of feature attributes.
func (d *Dataset) Features() int { return d.X.Cols }

// Clone returns a deep copy.
func (d *Dataset) Clone() *Dataset {
	return &Dataset{Name: d.Name, X: d.X.Clone(), Y: linalg.CopyVec(d.Y)}
}

// Shuffle permutes samples in place using rng.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	n := d.Len()
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		ri, rj := d.X.Row(i), d.X.Row(j)
		for k := range ri {
			ri[k], rj[k] = rj[k], ri[k]
		}
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
	}
}

// Split partitions the samples into a training prefix holding frac of the
// data and a test suffix with the rest. Shuffle first for a random split.
func (d *Dataset) Split(frac float64) (train, test *Dataset, err error) {
	if frac <= 0 || frac >= 1 {
		return nil, nil, fmt.Errorf("%w: split fraction %g outside (0,1)", ErrBadData, frac)
	}
	cut := int(float64(d.Len()) * frac)
	if cut == 0 || cut == d.Len() {
		return nil, nil, fmt.Errorf("%w: split of %d samples at %g leaves an empty side", ErrBadData, d.Len(), frac)
	}
	return d.Subset(rangeInts(0, cut)), d.Subset(rangeInts(cut, d.Len())), nil
}

// Subset returns a new data set holding the samples at the given indices, in
// order. Indices must be valid rows.
func (d *Dataset) Subset(idx []int) *Dataset {
	x := linalg.NewMatrix(len(idx), d.Features())
	y := make([]float64, len(idx))
	for r, i := range idx {
		copy(x.Row(r), d.X.Row(i))
		y[r] = d.Y[i]
	}
	return &Dataset{Name: d.Name, X: x, Y: y}
}

// SelectFeatures returns a data set restricted to the given feature columns.
func (d *Dataset) SelectFeatures(cols []int) *Dataset {
	x := linalg.NewMatrix(d.Len(), len(cols))
	for i := 0; i < d.Len(); i++ {
		src := d.X.Row(i)
		dst := x.Row(i)
		for c, j := range cols {
			dst[c] = src[j]
		}
	}
	return &Dataset{Name: d.Name, X: x, Y: linalg.CopyVec(d.Y)}
}

func rangeInts(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

// Scaler standardizes features to zero mean and unit variance, fit on one
// data set (training) and applied to others (test), the standard leakage-free
// protocol.
type Scaler struct {
	Mean, Std []float64
}

// FitScaler estimates per-feature means and standard deviations from d.
// Features with zero variance get Std = 1 so they pass through unchanged.
func FitScaler(d *Dataset) *Scaler {
	k := d.Features()
	mean := make([]float64, k)
	std := make([]float64, k)
	n := float64(d.Len())
	for i := 0; i < d.Len(); i++ {
		linalg.Axpy(1/n, d.X.Row(i), mean)
	}
	for i := 0; i < d.Len(); i++ {
		row := d.X.Row(i)
		for j := range row {
			dv := row[j] - mean[j]
			std[j] += dv * dv / n
		}
	}
	for j := range std {
		if std[j] <= 1e-12 {
			std[j] = 1
		} else {
			std[j] = math.Sqrt(std[j])
		}
	}
	return &Scaler{Mean: mean, Std: std}
}

// Apply standardizes d in place.
func (s *Scaler) Apply(d *Dataset) error {
	if d.Features() != len(s.Mean) {
		return fmt.Errorf("%w: scaler fit on %d features, data has %d", ErrBadData, len(s.Mean), d.Features())
	}
	for i := 0; i < d.Len(); i++ {
		row := d.X.Row(i)
		for j := range row {
			row[j] = (row[j] - s.Mean[j]) / s.Std[j]
		}
	}
	return nil
}

package ppml

import (
	"encoding/json"
	"fmt"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/linalg"
)

// Scaler standardizes features to the zero-mean/unit-variance space a model
// was trained in. Obtain one from Standardize and persist it alongside the
// model (SaveModelWithScaler) so new inputs can be transformed consistently.
type Scaler struct {
	inner *dataset.Scaler
}

// Apply standardizes every sample of d in place.
func (s *Scaler) Apply(d *Dataset) error {
	if s == nil || s.inner == nil || d == nil || d.inner == nil {
		return fmt.Errorf("%w: nil scaler or data", ErrBadRequest)
	}
	if err := s.inner.Apply(d.inner); err != nil {
		return fmt.Errorf("ppml: %w", err)
	}
	return nil
}

// Transform returns the standardized copy of a single feature vector.
func (s *Scaler) Transform(x []float64) ([]float64, error) {
	if s == nil || s.inner == nil {
		return nil, fmt.Errorf("%w: nil scaler", ErrBadRequest)
	}
	if len(x) != len(s.inner.Mean) {
		return nil, fmt.Errorf("%w: %d features, scaler fit on %d", ErrBadRequest, len(x), len(s.inner.Mean))
	}
	out := linalg.CopyVec(x)
	for j := range out {
		out[j] = (out[j] - s.inner.Mean[j]) / s.inner.Std[j]
	}
	return out, nil
}

type scalerJSON struct {
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
}

// MarshalJSON implements json.Marshaler.
func (s *Scaler) MarshalJSON() ([]byte, error) {
	if s == nil || s.inner == nil {
		return []byte("null"), nil
	}
	return json.Marshal(scalerJSON{Mean: s.inner.Mean, Std: s.inner.Std})
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Scaler) UnmarshalJSON(b []byte) error {
	var p scalerJSON
	if err := json.Unmarshal(b, &p); err != nil {
		return err
	}
	if len(p.Mean) != len(p.Std) {
		return fmt.Errorf("%w: scaler with %d means and %d stds", ErrBadModel, len(p.Mean), len(p.Std))
	}
	for j, sd := range p.Std {
		// A fitted scaler's deviations are positive (a constant feature
		// gets 1); Transform divides by them.
		if !(sd > 0) {
			return fmt.Errorf("%w: scaler std[%d] = %g, want > 0", ErrBadModel, j, sd)
		}
	}
	s.inner = &dataset.Scaler{Mean: p.Mean, Std: p.Std}
	return nil
}

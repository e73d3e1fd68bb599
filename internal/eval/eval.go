// Package eval computes the classification metric reported in Section VI:
// the correct-classification ratio.
package eval

import (
	"errors"
	"fmt"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/linalg"
)

// ErrBadInput indicates mismatched prediction/label lengths.
var ErrBadInput = errors.New("eval: bad input")

// Classifier is anything that assigns a ±1 label to a feature vector. Both
// the centralized SVM model and the consensus models satisfy it.
type Classifier interface {
	Predict(x []float64) float64
}

// Accuracy returns the correct-classification ratio of pred against truth.
func Accuracy(pred, truth []float64) (float64, error) {
	if len(pred) != len(truth) {
		return 0, fmt.Errorf("%w: %d predictions vs %d labels", ErrBadInput, len(pred), len(truth))
	}
	if len(pred) == 0 {
		return 0, fmt.Errorf("%w: empty input", ErrBadInput)
	}
	correct := 0
	for i := range pred {
		if (pred[i] >= 0) == (truth[i] >= 0) {
			correct++
		}
	}
	return float64(correct) / float64(len(pred)), nil
}

// batchScorer is a Classifier that can also score every row of a sample
// matrix in one call (the kernel models' tiled path): dst[i] is the decision
// value whose sign Predict reports for row i.
type batchScorer interface {
	Decisions(x *linalg.Matrix, dst []float64) ([]float64, error)
}

// ClassifierAccuracy runs clf over every sample of d and returns the correct
// ratio. A classifier with a batch Decisions method is scored in one call;
// the others are asked row by row.
func ClassifierAccuracy(clf Classifier, d *dataset.Dataset) (float64, error) {
	if d.Len() == 0 {
		return 0, fmt.Errorf("%w: empty data set", ErrBadInput)
	}
	if bs, ok := clf.(batchScorer); ok {
		scores, err := bs.Decisions(d.X, nil)
		if err != nil {
			return 0, err
		}
		return Accuracy(scores, d.Y)
	}
	correct := 0
	for i := 0; i < d.Len(); i++ {
		if (clf.Predict(d.X.Row(i)) >= 0) == (d.Y[i] >= 0) {
			correct++
		}
	}
	return float64(correct) / float64(d.Len()), nil
}

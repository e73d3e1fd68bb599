package dataset

import (
	"fmt"
	"math/rand"

	"github.com/ppml-go/ppml/internal/linalg"
)

// Multiclass is a labeled data set with integer class labels 0..NumClasses-1.
// The binary SVM framework extends to it one-vs-rest (Binarize), which is
// how the original 10-digit OCR data the paper evaluates on would actually
// be used.
type Multiclass struct {
	Name       string
	X          *linalg.Matrix
	Y          []int
	NumClasses int
}

// Len returns the number of samples.
func (m *Multiclass) Len() int { return m.X.Rows }

// Features returns the number of feature attributes.
func (m *Multiclass) Features() int { return m.X.Cols }

// Binarize returns the one-vs-rest binary view for the given class: label +1
// for rows of that class, −1 otherwise. The feature matrix is shared (not
// copied); callers that mutate features must Clone first.
func (m *Multiclass) Binarize(class int) (*Dataset, error) {
	if class < 0 || class >= m.NumClasses {
		return nil, fmt.Errorf("%w: class %d outside 0..%d", ErrBadData, class, m.NumClasses-1)
	}
	y := make([]float64, len(m.Y))
	for i, v := range m.Y {
		if v == class {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	return &Dataset{Name: fmt.Sprintf("%s/ovr%d", m.Name, class), X: m.X, Y: y}, nil
}

// Split divides the samples into a training prefix and test remainder.
func (m *Multiclass) Split(frac float64) (train, test *Multiclass, err error) {
	if frac <= 0 || frac >= 1 {
		return nil, nil, fmt.Errorf("%w: split fraction %g outside (0,1)", ErrBadData, frac)
	}
	cut := int(float64(m.Len()) * frac)
	if cut == 0 || cut == m.Len() {
		return nil, nil, fmt.Errorf("%w: split of %d samples at %g leaves an empty side", ErrBadData, m.Len(), frac)
	}
	return m.subset(0, cut), m.subset(cut, m.Len()), nil
}

func (m *Multiclass) subset(lo, hi int) *Multiclass {
	x := linalg.NewMatrix(hi-lo, m.Features())
	y := make([]int, hi-lo)
	for i := lo; i < hi; i++ {
		copy(x.Row(i-lo), m.X.Row(i))
		y[i-lo] = m.Y[i]
	}
	return &Multiclass{Name: m.Name, X: x, Y: y, NumClasses: m.NumClasses}
}

// SyntheticOCRDigits generates the full 10-class version of the OCR stand-in
// (SyntheticOCR binarizes it to even-vs-odd): 64 spatially correlated pixel
// features, ten digit prototypes drawn from the seed. n ≤ 0 selects the
// original size (5,620).
func SyntheticOCRDigits(n int, seed int64) *Multiclass {
	if n <= 0 {
		n = DefaultOCRSize
	}
	const side = 8
	const k = side * side
	rng := rand.New(rand.NewSource(seed))

	prototypes := make([][]float64, 10)
	for d := range prototypes {
		prototypes[d] = digitPrototype(rng, side)
	}
	x := linalg.NewMatrix(n, k)
	y := make([]int, n)
	raw := make([]float64, k)
	for i := 0; i < n; i++ {
		digit := rng.Intn(10)
		y[i] = digit
		for j := range raw {
			raw[j] = rng.NormFloat64()
		}
		smooth := smooth2D(raw, side)
		row := x.Row(i)
		for j := range row {
			row[j] = prototypes[digit][j] + ocrNoiseAmp*smooth[j]
		}
	}
	// Shuffle rows with labels paired.
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		ri, rj := x.Row(i), x.Row(j)
		for c := range ri {
			ri[c], rj[c] = rj[c], ri[c]
		}
		y[i], y[j] = y[j], y[i]
	}
	return &Multiclass{Name: "ocr10", X: x, Y: y, NumClasses: 10}
}

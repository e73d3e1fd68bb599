package dataset

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/ppml-go/ppml/internal/linalg"
)

func TestNewValidation(t *testing.T) {
	if _, err := New("x", nil, nil); !errors.Is(err, ErrBadData) {
		t.Errorf("nil X: err = %v, want ErrBadData", err)
	}
	if _, err := New("x", linalg.NewMatrix(2, 2), []float64{1}); !errors.Is(err, ErrBadData) {
		t.Errorf("short Y: err = %v, want ErrBadData", err)
	}
	if _, err := New("x", linalg.NewMatrix(1, 2), []float64{2}); !errors.Is(err, ErrBadData) {
		t.Errorf("bad label: err = %v, want ErrBadData", err)
	}
	d, err := New("ok", linalg.NewMatrix(2, 3), []float64{1, -1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 || d.Features() != 3 {
		t.Errorf("Len/Features = %d/%d, want 2/3", d.Len(), d.Features())
	}
}

func TestShufflePreservesPairs(t *testing.T) {
	// Encode the label into the features; shuffling must keep them paired.
	n := 50
	x := linalg.NewMatrix(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
		x.Set(i, 0, y[i]*float64(i+1))
	}
	d, err := New("pairs", x, y)
	if err != nil {
		t.Fatal(err)
	}
	d.Shuffle(rand.New(rand.NewSource(3)))
	for i := 0; i < n; i++ {
		if d.X.At(i, 0)*d.Y[i] <= 0 {
			t.Fatalf("row %d decoupled from its label after shuffle", i)
		}
	}
}

func TestSplit(t *testing.T) {
	d := TwoGaussians("g", 100, 3, 2, 1)
	train, test, err := d.Split(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 50 || test.Len() != 50 {
		t.Errorf("split sizes = %d/%d, want 50/50", train.Len(), test.Len())
	}
	if _, _, err := d.Split(0); !errors.Is(err, ErrBadData) {
		t.Errorf("frac 0: err = %v, want ErrBadData", err)
	}
	if _, _, err := d.Split(1); !errors.Is(err, ErrBadData) {
		t.Errorf("frac 1: err = %v, want ErrBadData", err)
	}
	two := d.Subset([]int{0, 1})
	if _, _, err := two.Split(0.05); !errors.Is(err, ErrBadData) {
		t.Errorf("empty-side split: err = %v, want ErrBadData", err)
	}
}

func TestSubsetAndSelectFeatures(t *testing.T) {
	x, _ := linalg.NewMatrixFrom(3, 3, []float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	})
	d, err := New("m", x, []float64{1, -1, 1})
	if err != nil {
		t.Fatal(err)
	}
	sub := d.Subset([]int{2, 0})
	if sub.X.At(0, 0) != 7 || sub.X.At(1, 0) != 1 || sub.Y[0] != 1 {
		t.Errorf("Subset wrong: %+v", sub.X.Data)
	}
	// Mutating the subset must not touch the original.
	sub.X.Set(0, 0, 99)
	if d.X.At(2, 0) == 99 {
		t.Error("Subset aliases the parent")
	}
	sel := d.SelectFeatures([]int{2, 1})
	if sel.Features() != 2 || sel.X.At(1, 0) != 6 || sel.X.At(1, 1) != 5 {
		t.Errorf("SelectFeatures wrong: %+v", sel.X.Data)
	}
	if len(sel.Y) != 3 {
		t.Error("SelectFeatures must keep all labels")
	}
}

func TestCloneIndependent(t *testing.T) {
	d := TwoGaussians("g", 10, 2, 1, 2)
	c := d.Clone()
	c.X.Set(0, 0, 1e9)
	c.Y[0] = -c.Y[0]
	if d.X.At(0, 0) == 1e9 {
		t.Error("Clone aliases X")
	}
}

// classBalance returns the fraction of +1 labels in a non-empty dataset.
func classBalance(d *Dataset) float64 {
	pos := 0
	for _, v := range d.Y {
		if v > 0 {
			pos++
		}
	}
	return float64(pos) / float64(d.Len())
}

func TestScalerStandardizes(t *testing.T) {
	d := TwoGaussians("g", 400, 5, 3, 7)
	s := FitScaler(d)
	if err := s.Apply(d); err != nil {
		t.Fatal(err)
	}
	after := FitScaler(d)
	for j := 0; j < d.Features(); j++ {
		if math.Abs(after.Mean[j]) > 1e-9 {
			t.Errorf("feature %d mean after scaling = %g, want 0", j, after.Mean[j])
		}
		if math.Abs(after.Std[j]-1) > 1e-9 {
			t.Errorf("feature %d std after scaling = %g, want 1", j, after.Std[j])
		}
	}
	if err := s.Apply(&Dataset{X: linalg.NewMatrix(1, 2), Y: []float64{1}}); !errors.Is(err, ErrBadData) {
		t.Errorf("mismatched Apply: err = %v, want ErrBadData", err)
	}
}

func TestScalerConstantFeature(t *testing.T) {
	x := linalg.NewMatrix(3, 1)
	for i := 0; i < 3; i++ {
		x.Set(i, 0, 5)
	}
	d, _ := New("const", x, []float64{1, -1, 1})
	s := FitScaler(d)
	if s.Std[0] != 1 {
		t.Errorf("constant feature std = %g, want fallback 1", s.Std[0])
	}
	if err := s.Apply(d); err != nil {
		t.Fatal(err)
	}
	if d.X.At(0, 0) != 0 {
		t.Errorf("constant feature after scaling = %g, want 0", d.X.At(0, 0))
	}
}

func TestTwoGaussiansSeparability(t *testing.T) {
	// With a large delta, a trivial projection classifier must do well.
	d := TwoGaussians("easy", 500, 4, 6, 11)
	if d.Len() != 500 || d.Features() != 4 {
		t.Fatalf("shape = %dx%d", d.Len(), d.Features())
	}
	// Class-mean direction classifier.
	mu := make([]float64, 4)
	for i := 0; i < d.Len(); i++ {
		linalg.Axpy(d.Y[i], d.X.Row(i), mu)
	}
	correct := 0
	for i := 0; i < d.Len(); i++ {
		if (linalg.Dot(mu, d.X.Row(i)) >= 0) == (d.Y[i] > 0) {
			correct++
		}
	}
	if ratio := float64(correct) / float64(d.Len()); ratio < 0.95 {
		t.Errorf("delta=6 separability = %g, want ≥ 0.95", ratio)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := SyntheticCancer(100, 42)
	b := SyntheticCancer(100, 42)
	for i := range a.X.Data {
		if a.X.Data[i] != b.X.Data[i] {
			t.Fatal("SyntheticCancer not deterministic for equal seeds")
		}
	}
	c := SyntheticCancer(100, 43)
	same := true
	for i := range a.X.Data {
		if a.X.Data[i] != c.X.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestGeneratorShapes(t *testing.T) {
	cases := []struct {
		d        *Dataset
		n, k     int
		balanceL float64
		balanceH float64
	}{
		{SyntheticCancer(0, 1), DefaultCancerSize, 9, 0.5, 0.75},
		{SyntheticHiggs(500, 1), 500, 28, 0.4, 0.6},
		{SyntheticOCR(400, 1), 400, 64, 0.35, 0.65},
	}
	for _, c := range cases {
		if c.d.Len() != c.n || c.d.Features() != c.k {
			t.Errorf("%s: shape %dx%d, want %dx%d", c.d.Name, c.d.Len(), c.d.Features(), c.n, c.k)
		}
		if b := classBalance(c.d); b < c.balanceL || b > c.balanceH {
			t.Errorf("%s: class balance %g outside [%g, %g]", c.d.Name, b, c.balanceL, c.balanceH)
		}
	}
}

func TestOCRFeatureCorrelation(t *testing.T) {
	// The OCR stand-in must have strongly correlated neighboring pixels —
	// the property Section VI blames for slow vertical convergence.
	d := SyntheticOCR(800, 5)
	s := FitScaler(d)
	if err := s.Apply(d); err != nil {
		t.Fatal(err)
	}
	// Average correlation between horizontally adjacent pixels.
	var corr float64
	var pairs int
	for r := 0; r < 8; r++ {
		for c := 0; c+1 < 8; c++ {
			j1, j2 := r*8+c, r*8+c+1
			var s12 float64
			for i := 0; i < d.Len(); i++ {
				s12 += d.X.At(i, j1) * d.X.At(i, j2)
			}
			corr += s12 / float64(d.Len())
			pairs++
		}
	}
	if avg := corr / float64(pairs); avg < 0.3 {
		t.Errorf("mean adjacent-pixel correlation = %g, want ≥ 0.3", avg)
	}
}

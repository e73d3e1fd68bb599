package svm

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/eval"
	"github.com/ppml-go/ppml/internal/kernel"
	"github.com/ppml-go/ppml/internal/linalg"
)

func TestTrainValidation(t *testing.T) {
	x := linalg.NewMatrix(2, 2)
	y := []float64{1, -1}
	if _, err := Train(nil, y, Params{C: 1}); !errors.Is(err, ErrBadTrainingSet) {
		t.Errorf("nil X: err = %v, want ErrBadTrainingSet", err)
	}
	if _, err := Train(x, []float64{1}, Params{C: 1}); !errors.Is(err, ErrBadTrainingSet) {
		t.Errorf("short y: err = %v, want ErrBadTrainingSet", err)
	}
	if _, err := Train(x, []float64{1, 2}, Params{C: 1}); !errors.Is(err, ErrBadTrainingSet) {
		t.Errorf("bad label: err = %v, want ErrBadTrainingSet", err)
	}
	if _, err := Train(x, y, Params{C: 0}); !errors.Is(err, ErrBadTrainingSet) {
		t.Errorf("C=0: err = %v, want ErrBadTrainingSet", err)
	}
	if _, err := Train(x, y, Params{C: 1, Kernel: kernel.RBF{Gamma: 0}}); !errors.Is(err, kernel.ErrBadParameter) {
		t.Errorf("rbf γ=0: err = %v, want kernel.ErrBadParameter", err)
	}
}

func TestBiasFromKKT(t *testing.T) {
	for _, tc := range []struct {
		name              string
		scores, y, lambda []float64
		want              float64
	}{
		// Free SV at index 0: y=+1, score 0.4 → b = 0.6.
		{"free SV", []float64{0.4, 2, -3}, []float64{1, 1, -1}, []float64{0.5, 0, 0}, 0.6},
		// No free SVs: midpoint of the feasible interval. y=+1, λ=0, score 0.5
		// → b ≥ 0.5; y=−1, λ=0, score −2 → b ≤ 1.
		{"midpoint", []float64{0.5, -2}, []float64{1, -1}, []float64{0, 0}, 0.75},
		// Lower bounds only: y=+1, λ=0, score 0.5 → b ≥ 0.5; y=−1, λ=C, score
		// −2.5 → b ≥ 1.5.
		{"lower bounds only", []float64{0.5, -2.5}, []float64{1, -1}, []float64{0, 1}, 1.5},
		// Upper bounds only: y=−1, λ=0, score −2 → b ≤ 1; y=+1, λ=C, score 3
		// → b ≤ −2.
		{"upper bounds only", []float64{-2, 3}, []float64{-1, 1}, []float64{0, 1}, -2},
		// Degenerate: nothing known.
		{"empty", nil, nil, nil, 0},
	} {
		if b := BiasFromKKT(tc.scores, tc.y, tc.lambda, 1); math.Abs(b-tc.want) > 1e-12 {
			t.Errorf("%s: bias = %g, want %g", tc.name, b, tc.want)
		}
	}
}

func TestLinearSeparableToy(t *testing.T) {
	// Points at ±1 on the x-axis: max-margin hyperplane is x = 0, w = (1),
	// b = 0, both points are support vectors with λ = ½.
	x, _ := linalg.NewMatrixFrom(2, 1, []float64{1, -1})
	y := []float64{1, -1}
	m, err := Train(x, y, Params{C: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m.SupportCount != 2 {
		t.Errorf("support count = %d, want 2", m.SupportCount)
	}
	if math.Abs(m.W[0]-1) > 1e-4 {
		t.Errorf("w = %v, want [1]", m.W)
	}
	if math.Abs(m.B) > 1e-4 {
		t.Errorf("b = %g, want 0", m.B)
	}
	if m.Predict([]float64{0.7}) != 1 || m.Predict([]float64{-0.3}) != -1 {
		t.Error("toy predictions wrong")
	}
}

func TestLinearMarginWidth(t *testing.T) {
	// Separable data at distance 2 and −2 from the separator along feature 0:
	// optimal margin constraint makes ‖w‖ = 1/2 when points sit at ±2.
	x, _ := linalg.NewMatrixFrom(4, 2, []float64{
		2, 1,
		2, -3,
		-2, 0.5,
		-2, 2,
	})
	y := []float64{1, 1, -1, -1}
	m, err := Train(x, y, Params{C: 100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.W[0]-0.5) > 1e-3 || math.Abs(m.W[1]) > 1e-3 {
		t.Errorf("w = %v, want [0.5 0]", m.W)
	}
}

func TestBiasShiftedData(t *testing.T) {
	// Classes at x=4±1: the separator is x = 4, so b = −4·w.
	x, _ := linalg.NewMatrixFrom(2, 1, []float64{5, 3})
	y := []float64{1, -1}
	m, err := Train(x, y, Params{C: 10})
	if err != nil {
		t.Fatal(err)
	}
	if f := m.Decision([]float64{4}); math.Abs(f) > 1e-4 {
		t.Errorf("decision at midpoint = %g, want 0", f)
	}
	if m.Predict([]float64{4.5}) != 1 || m.Predict([]float64{3.5}) != -1 {
		t.Error("shifted predictions wrong")
	}
}

func TestRBFSolvesXOR(t *testing.T) {
	// XOR is the canonical linearly inseparable task; an RBF SVM must nail it.
	x, _ := linalg.NewMatrixFrom(4, 2, []float64{
		0, 0,
		1, 1,
		0, 1,
		1, 0,
	})
	y := []float64{1, 1, -1, -1}
	m, err := Train(x, y, Params{C: 10, Kernel: kernel.RBF{Gamma: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if m.Predict(x.Row(i)) != y[i] {
			t.Errorf("XOR sample %d misclassified", i)
		}
	}
	if m.W != nil {
		t.Error("kernel model must not expose a primal W")
	}
}

func TestSlackAllowsOutliers(t *testing.T) {
	// One mislabeled point inside the other class; small C must tolerate it.
	x, _ := linalg.NewMatrixFrom(5, 1, []float64{-2, -1.8, 2, 1.8, -1.9})
	y := []float64{-1, -1, 1, 1, 1} // last point is an outlier
	m, err := Train(x, y, Params{C: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Predict([]float64{2}) != 1 || m.Predict([]float64{-2}) != -1 {
		t.Error("outlier dominated the soft-margin solution")
	}
}

// TestDecisionsMatchDecision pins Decision to the batch scoring path bit for
// bit, on trained models: the explicit-weight MulVec for a linear model, the
// tiled kernel path otherwise, both with and without a caller's dst.
func TestDecisionsMatchDecision(t *testing.T) {
	d := dataset.TwoGaussians("g", 60, 3, 3, 3)
	for _, k := range []kernel.Kernel{nil, kernel.RBF{Gamma: 0.5}} {
		m, err := Train(d.X, d.Y, Params{C: 1, Kernel: k})
		if err != nil {
			t.Fatal(err)
		}
		batch, err := m.Decisions(d.X, nil)
		if err != nil {
			t.Fatal(err)
		}
		reused, err := m.Decisions(d.X, make([]float64, d.Len()))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < d.Len(); i++ {
			want := m.Decision(d.X.Row(i))
			if math.Float64bits(batch[i]) != math.Float64bits(want) || reused[i] != batch[i] {
				t.Fatalf("%s: row %d: batch %.17g, into dst %.17g, scalar %.17g", m.Kernel.Name(), i, batch[i], reused[i], want)
			}
		}
		if _, err := m.Decisions(d.X, make([]float64, 1)); !errors.Is(err, linalg.ErrShape) {
			t.Errorf("%s: short dst: err = %v, want ErrShape", m.Kernel.Name(), err)
		}
	}
}

// TestBenchmarkAccuracies verifies the centralized baseline reaches the
// paper's reported accuracies on the synthetic stand-ins with a 50/50 split:
// cancer ≈ 95%, higgs ≈ 70%, ocr ≈ 98% (Section VI), each from a dual solve
// that met its tolerance.
func TestBenchmarkAccuracies(t *testing.T) {
	cases := []struct {
		d        *dataset.Dataset
		k        kernel.Kernel
		lo, hi   float64
		features int
	}{
		{dataset.SyntheticCancer(569, 1), kernel.Linear{}, 0.92, 1.0, 9},
		{dataset.SyntheticHiggs(2000, 1), kernel.Linear{}, 0.64, 0.78, 28},
		{dataset.SyntheticOCR(1200, 1), kernel.RBF{Gamma: 0.02}, 0.95, 1.0, 64},
	}
	for _, c := range cases {
		c := c
		t.Run(c.d.Name, func(t *testing.T) {
			train, test, err := c.d.Split(0.5)
			if err != nil {
				t.Fatal(err)
			}
			s := dataset.FitScaler(train)
			if err := s.Apply(train); err != nil {
				t.Fatal(err)
			}
			if err := s.Apply(test); err != nil {
				t.Fatal(err)
			}
			m, err := Train(train.X, train.Y, Params{C: 50, Kernel: c.k})
			if err != nil {
				t.Fatal(err)
			}
			if !m.Converged {
				t.Errorf("%s: the dual solve stopped at its cap after %d updates", c.d.Name, m.Iterations)
			}
			acc, err := eval.ClassifierAccuracy(m, test)
			if err != nil {
				t.Fatal(err)
			}
			if acc < c.lo || acc > c.hi {
				t.Errorf("%s accuracy = %.3f, want in [%.2f, %.2f]", c.d.Name, acc, c.lo, c.hi)
			}
		})
	}
}

func TestSupportVectorSubsetSufficesForPrediction(t *testing.T) {
	// The model stores only support vectors; its decision must match the
	// full dual expansion, which holds iff non-SV duals are ≈ 0. Check by
	// confirming decisions are consistent on training points that should be
	// confidently classified.
	d := dataset.TwoGaussians("g", 120, 4, 5, 9)
	m, err := Train(d.X, d.Y, Params{C: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.SupportCount == 0 || m.SupportCount > d.Len() {
		t.Fatalf("support count = %d out of range", m.SupportCount)
	}
	acc, err := eval.ClassifierAccuracy(m, d)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.97 {
		t.Errorf("training accuracy on delta=5 data = %g, want ≥ 0.97", acc)
	}
}

// TestLinearTrainHoldsNoGram is the memory side of the Gram-free linear
// solve: training on 4,000 rows allocates O(n·k), where the n × n dual
// Hessian alone would be 128 MB.
func TestLinearTrainHoldsNoGram(t *testing.T) {
	d := dataset.TwoGaussians("g", 4000, 10, 1, 7)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := Train(d.X, d.Y, Params{C: 1})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if allocated := after.TotalAlloc - before.TotalAlloc; allocated >= 2<<20 {
		t.Errorf("linear Train over %d rows allocated %d bytes, want < 2 MiB", d.Len(), allocated)
	}
	if !m.Converged {
		t.Errorf("the dual solve stopped at its cap after %d updates", m.Iterations)
	}
}

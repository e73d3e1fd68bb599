package kernel

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ppml-go/ppml/internal/linalg"
)

func sane(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
			return false
		}
	}
	return true
}

func TestLinearMatchesDot(t *testing.T) {
	k := Linear{}
	x := []float64{1, 2, 3}
	y := []float64{4, -5, 6}
	if got, want := k.Eval(x, y), 4.0-10+18; got != want {
		t.Errorf("linear = %g, want %g", got, want)
	}
}

func TestKernelSymmetry(t *testing.T) {
	kernels := []Kernel{
		Linear{},
		Polynomial{A: 0.5, B: 1, Degree: 3},
		RBF{Gamma: 0.2},
		Sigmoid{A: 0.1, C: -0.5},
	}
	for _, k := range kernels {
		k := k
		f := func(xs, ys [5]float64) bool {
			x, y := xs[:], ys[:]
			if !sane(x...) || !sane(y...) {
				return true
			}
			a, b := k.Eval(x, y), k.Eval(y, x)
			return math.Abs(a-b) <= 1e-12*(1+math.Abs(a))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: symmetry violated: %v", k.Name(), err)
		}
	}
}

func TestRBFProperties(t *testing.T) {
	k := RBF{Gamma: 0.5}
	x := []float64{1, 2}
	if got := k.Eval(x, x); got != 1 {
		t.Errorf("RBF(x,x) = %g, want 1", got)
	}
	f := func(xs, ys [4]float64) bool {
		x, y := xs[:], ys[:]
		if !sane(x...) || !sane(y...) {
			return true
		}
		v := k.Eval(x, y)
		return v > 0 && v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("RBF range violated: %v", err)
	}
}

func TestPolynomialDegree(t *testing.T) {
	k := Polynomial{A: 1, B: 0, Degree: 2}
	x := []float64{2}
	y := []float64{3}
	if got := k.Eval(x, y); got != 36 {
		t.Errorf("poly(2*3)^2 = %g, want 36", got)
	}
	k0 := Polynomial{A: 1, B: 5, Degree: 0}
	if got := k0.Eval(x, y); got != 1 {
		t.Errorf("degree-0 poly = %g, want 1", got)
	}
}

func TestSigmoidBounded(t *testing.T) {
	k := Sigmoid{A: 2, C: 1}
	if v := k.Eval([]float64{100}, []float64{100}); v <= 0.99 || v > 1 {
		t.Errorf("sigmoid saturation = %g, want ≈1", v)
	}
}

func TestGramMatrixSymmetricPSD(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := linalg.NewMatrix(12, 4)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for _, k := range []Kernel{Linear{}, RBF{Gamma: 0.3}, Polynomial{A: 1, B: 1, Degree: 2}} {
		g := GramMatrix(k, a)
		for i := 0; i < g.Rows; i++ {
			for j := 0; j < g.Cols; j++ {
				if g.At(i, j) != g.At(j, i) {
					t.Fatalf("%s: Gram not symmetric at (%d,%d)", k.Name(), i, j)
				}
			}
		}
		// PSD check: add a jitter and require Cholesky to succeed.
		jittered := g.Clone()
		if err := jittered.AddScaledIdentity(1e-8); err != nil {
			t.Fatal(err)
		}
		if _, err := linalg.FactorizeCholesky(jittered); err != nil {
			t.Errorf("%s: Gram + εI not SPD: %v", k.Name(), err)
		}
	}
}

func TestMatrixMatchesGram(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := linalg.NewMatrix(7, 3)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	k := RBF{Gamma: 0.7}
	cross, err := Matrix(k, a, a)
	if err != nil {
		t.Fatal(err)
	}
	gram := GramMatrix(k, a)
	for i := range gram.Data {
		if cross.Data[i] != gram.Data[i] {
			t.Fatalf("Matrix(A,A) differs from GramMatrix at %d", i)
		}
	}
}

func TestMatrixShapeError(t *testing.T) {
	if _, err := Matrix(Linear{}, linalg.NewMatrix(2, 3), linalg.NewMatrix(2, 4)); !errors.Is(err, linalg.ErrShape) {
		t.Errorf("Matrix shape: err = %v, want ErrShape", err)
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		spec string
		want string // Name() of the parsed kernel when err is nil
		err  error
	}{
		{spec: "linear", want: "linear"},
		{spec: "rbf:0.5", want: "rbf(gamma=0.5)"},
		{spec: "poly:1:2:3", want: "poly(a=1,b=2,d=3)"},
		{spec: "sigmoid:0.1:0.2", want: "sigmoid(a=0.1,c=0.2)"},
		{spec: "quantum:42", err: ErrUnknownKernel},
		{spec: "linear:", err: ErrUnknownKernel},
		{spec: "rbf:1junk", err: ErrUnknownKernel},
		{spec: "poly:1:0:2:9", err: ErrUnknownKernel},
		{spec: "rbf:NaN", err: ErrBadParameter},
		{spec: "rbf:+Inf", err: ErrBadParameter},
		{spec: "rbf:-1", err: ErrBadParameter},
		{spec: "rbf:0", err: ErrBadParameter},
		{spec: "poly:1:0:-3", err: ErrBadParameter},
		{spec: "poly:1:0:0", err: ErrBadParameter},
		{spec: "sigmoid:Inf:0", err: ErrBadParameter},
	}
	for _, c := range cases {
		k, err := Parse(c.spec)
		if !errors.Is(err, c.err) || (err == nil) != (c.err == nil) {
			t.Errorf("Parse(%q): err = %v, want %v", c.spec, err, c.err)
			continue
		}
		if err == nil && k.Name() != c.want {
			t.Errorf("Parse(%q).Name() = %q, want %q", c.spec, k.Name(), c.want)
		}
	}
}

func TestLinearKernelGramEqualsXXT(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := linalg.NewMatrix(6, 4)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	gram := GramMatrix(Linear{}, a)
	xxt, err := linalg.MatMulT(a, a)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gram.Data {
		if math.Abs(gram.Data[i]-xxt.Data[i]) > 1e-12 {
			t.Fatalf("linear Gram != XXᵀ at %d", i)
		}
	}
}

func TestSpecParseRoundTrip(t *testing.T) {
	kernels := []Kernel{
		Linear{},
		RBF{Gamma: 0.25},
		Polynomial{A: 1.5, B: -2, Degree: 3},
		Sigmoid{A: 0.1, C: 0.9},
	}
	for _, k := range kernels {
		spec, err := Spec(k)
		if err != nil {
			t.Fatalf("%s: %v", k.Name(), err)
		}
		back, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(Spec(%s)) = %v", k.Name(), err)
		}
		if back != k {
			t.Errorf("round trip changed kernel: %v vs %v", back, k)
		}
	}
	// The only way to a fifth Kernel type is to embed one; neither Spec nor
	// Validate takes it for the kernel it wraps.
	type alien struct{ Kernel }
	if _, err := Spec(alien{RBF{Gamma: 1}}); !errors.Is(err, ErrUnknownKernel) {
		t.Errorf("Spec(alien): err = %v, want ErrUnknownKernel", err)
	}
	if err := Validate(alien{RBF{Gamma: 1}}); !errors.Is(err, ErrUnknownKernel) {
		t.Errorf("Validate(alien): err = %v, want ErrUnknownKernel", err)
	}
	if err := Validate(nil); !errors.Is(err, ErrUnknownKernel) {
		t.Errorf("Validate(nil): err = %v, want ErrUnknownKernel", err)
	}
}

package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// randomSPD builds A = BᵀB + n·I, which is SPD with overwhelming probability.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	b := randomMatrix(rng, n, n)
	a, err := MatMulT(b.T(), b.T())
	if err != nil {
		panic(err)
	}
	if err := a.AddScaledIdentity(float64(n)); err != nil {
		panic(err)
	}
	a.SymmetrizeUpper()
	return a
}

func TestNewMatrixFrom(t *testing.T) {
	m, err := NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatalf("NewMatrixFrom: %v", err)
	}
	if got := m.At(1, 2); got != 6 {
		t.Errorf("At(1,2) = %g, want 6", got)
	}
	if _, err := NewMatrixFrom(2, 3, []float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("short data: err = %v, want ErrShape", err)
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(4).At(%d,%d) = %g, want %g", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(rng, 5, 3)
	tt := m.T().T()
	if tt.Rows != m.Rows || tt.Cols != m.Cols {
		t.Fatalf("double transpose shape = %dx%d, want %dx%d", tt.Rows, tt.Cols, m.Rows, m.Cols)
	}
	for i, v := range m.Data {
		if tt.Data[i] != v {
			t.Fatalf("double transpose differs at %d", i)
		}
	}
}

func TestMulVecShapes(t *testing.T) {
	m := NewMatrix(2, 3)
	if _, err := m.MulVec([]float64{1, 2}, nil); !errors.Is(err, ErrShape) {
		t.Errorf("MulVec bad shape: err = %v, want ErrShape", err)
	}
	if _, err := m.MulVecT([]float64{1, 2, 3}, nil); !errors.Is(err, ErrShape) {
		t.Errorf("MulVecT bad shape: err = %v, want ErrShape", err)
	}
	if _, err := m.MulVec([]float64{1, 2, 3}, make([]float64, 1)); !errors.Is(err, ErrShape) {
		t.Errorf("MulVec bad dst: err = %v, want ErrShape", err)
	}
}

func TestMulVecTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomMatrix(rng, 7, 4)
	x := make([]float64, 7)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got, err := m.MulVecT(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.T().MulVec(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Fatalf("MulVecT[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestMatMulAssociativityWithVector(t *testing.T) {
	// (A*B)x == A*(Bx) — checks MatMul against MulVec.
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(rng, 4, 6)
	b := randomMatrix(rng, 6, 5)
	x := make([]float64, 5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	ab, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	left, err := ab.MulVec(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	bx, err := b.MulVec(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	right, err := a.MulVec(bx, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range left {
		if !almostEqual(left[i], right[i], 1e-12) {
			t.Fatalf("(AB)x[%d] = %g, A(Bx)[%d] = %g", i, left[i], i, right[i])
		}
	}
}

func TestMatMulTMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomMatrix(rng, 3, 7)
	b := randomMatrix(rng, 5, 7)
	got, err := MatMulT(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MatMul(a, b.T())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if !almostEqual(got.Data[i], want.Data[i], 1e-12) {
			t.Fatalf("MatMulT differs at %d: %g vs %g", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulShapeError(t *testing.T) {
	if _, err := MatMul(NewMatrix(2, 3), NewMatrix(4, 2)); !errors.Is(err, ErrShape) {
		t.Errorf("MatMul shape: err = %v, want ErrShape", err)
	}
	if _, err := MatMulT(NewMatrix(2, 3), NewMatrix(4, 2)); !errors.Is(err, ErrShape) {
		t.Errorf("MatMulT shape: err = %v, want ErrShape", err)
	}
}

func TestAddScaleIdentityOps(t *testing.T) {
	m, _ := NewMatrixFrom(2, 2, []float64{11, 22, 33, 44})
	m.Scale(2)
	if err := m.AddScaledIdentity(1); err != nil {
		t.Fatal(err)
	}
	want := []float64{23, 44, 66, 89}
	for i, w := range want {
		if m.Data[i] != w {
			t.Fatalf("combined op Data[%d] = %g, want %g", i, m.Data[i], w)
		}
	}
	if err := NewMatrix(2, 3).AddScaledIdentity(1); !errors.Is(err, ErrShape) {
		t.Errorf("AddScaledIdentity non-square: err = %v, want ErrShape", err)
	}
}

func TestSymmetrizeUpper(t *testing.T) {
	m, _ := NewMatrixFrom(2, 2, []float64{1, 5, -3, 2})
	m.SymmetrizeUpper()
	if m.At(1, 0) != 5 {
		t.Errorf("SymmetrizeUpper: At(1,0) = %g, want 5", m.At(1, 0))
	}
}

func TestDotAxpyProperties(t *testing.T) {
	// Dot is symmetric and linear in each argument.
	f := func(xs [6]float64, ys [6]float64, alpha float64) bool {
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) {
			return true
		}
		x, y := xs[:], ys[:]
		for _, v := range append(CopyVec(x), y...) {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		if math.Abs(alpha) > 1e100 {
			return true
		}
		if !almostEqual(Dot(x, y), Dot(y, x), 1e-12) {
			return false
		}
		// Axpy consistency: Dot(x, y + alpha*x) == Dot(x,y) + alpha*Dot(x,x)
		y2 := CopyVec(y)
		Axpy(alpha, x, y2)
		return almostEqual(Dot(x, y2), Dot(x, y)+alpha*Dot(x, x), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNorm2AgainstNaive(t *testing.T) {
	f := func(xs [8]float64) bool {
		x := xs[:]
		var naive float64
		for _, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e150 {
				return true
			}
			naive += v * v
		}
		return almostEqual(Norm2(x), math.Sqrt(naive), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNorm2OverflowSafe(t *testing.T) {
	x := []float64{1e200, 1e200}
	want := 1e200 * math.Sqrt2
	if got := Norm2(x); !almostEqual(got, want, 1e-12) {
		t.Errorf("Norm2 overflow-safe: got %g, want %g", got, want)
	}
}

func TestVectorHelpers(t *testing.T) {
	x := []float64{1, -2, 3}
	y := []float64{4, 5, -6}
	if got := NormInf(x); got != 3 {
		t.Errorf("NormInf = %g, want 3", got)
	}
	if got := NormInf(nil); got != 0 {
		t.Errorf("NormInf(nil) = %g, want 0", got)
	}
	sum := AddVec(x, y, nil)
	diff := SubVec(x, y, nil)
	for i := range x {
		if sum[i] != x[i]+y[i] || diff[i] != x[i]-y[i] {
			t.Fatalf("AddVec/SubVec wrong at %d", i)
		}
	}
	if got := Dist2Sq(x, y); got != 9+49+81 {
		t.Errorf("Dist2Sq = %g, want 139", got)
	}
	z := CopyVec(x)
	Zero(z)
	if NormInf(z) != 0 {
		t.Error("Zero did not clear the vector")
	}
	Scale(2, x)
	if x[2] != 6 {
		t.Errorf("Scale: x[2] = %g, want 6", x[2])
	}
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp wrong")
	}
}

func TestRowIsView(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Row(1)[0] = 42
	if m.At(1, 0) != 42 {
		t.Error("Row must be a mutable view into the matrix")
	}
}

func TestColCopies(t *testing.T) {
	m, _ := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	c := m.Col(1, nil)
	c[0] = 99
	if m.At(0, 1) == 99 {
		t.Error("Col must copy, not alias")
	}
	buf := make([]float64, 2)
	got := m.Col(0, buf)
	if &got[0] != &buf[0] {
		t.Error("Col should reuse the provided buffer")
	}
}

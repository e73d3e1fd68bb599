package linalg

import (
	"errors"
	"math/rand"
	"testing"
)

func TestCholeskyReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{1, 2, 3, 8, 25} {
		a := randomSPD(rng, n)
		ch, err := FactorizeCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if ch.Size() != n {
			t.Fatalf("Size = %d, want %d", ch.Size(), n)
		}
		llt, err := MatMulT(ch.l, ch.l)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Data {
			if !almostEqual(llt.Data[i], a.Data[i], 1e-9) {
				t.Fatalf("n=%d: LLᵀ differs from A at %d: %g vs %g", n, i, llt.Data[i], a.Data[i])
			}
		}
	}
}

func TestCholeskySolveResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(30)
		a := randomSPD(rng, n)
		ch, err := FactorizeCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := ch.SolveVec(b, nil)
		if err != nil {
			t.Fatal(err)
		}
		ax, err := a.MulVec(x, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res := Norm2(SubVec(ax, b, nil)); res > 1e-8*(1+Norm2(b)) {
			t.Fatalf("trial %d n=%d: residual %g too large", trial, n, res)
		}
	}
}

func TestCholeskySolveInPlaceAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randomSPD(rng, 6)
	ch, err := FactorizeCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 6)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want, _ := ch.SolveVec(b, nil)
	got, err := ch.SolveVec(b, b) // alias dst = b
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("aliased solve differs at %d", i)
		}
	}
}

func TestCholeskyNotSPD(t *testing.T) {
	a, _ := NewMatrixFrom(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := FactorizeCholesky(a); !errors.Is(err, ErrNotSPD) {
		t.Errorf("indefinite matrix: err = %v, want ErrNotSPD", err)
	}
	if _, err := FactorizeCholesky(NewMatrix(2, 3)); !errors.Is(err, ErrShape) {
		t.Errorf("non-square: err = %v, want ErrShape", err)
	}
}

func TestCholeskyInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomSPD(rng, 9)
	ch, err := FactorizeCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := ch.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	prod, err := MatMul(a, inv)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		for j := 0; j < 9; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEqual(prod.At(i, j), want, 1e-8) {
				t.Fatalf("A·A⁻¹ differs from I at (%d,%d): %g", i, j, prod.At(i, j))
			}
		}
	}
}

func TestCholeskySolveMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randomSPD(rng, 5)
	b := randomMatrix(rng, 5, 3)
	ch, err := FactorizeCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := ch.SolveMatrix(b)
	if err != nil {
		t.Fatal(err)
	}
	ax, err := MatMul(a, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b.Data {
		if !almostEqual(ax.Data[i], b.Data[i], 1e-8) {
			t.Fatalf("AX != B at %d: %g vs %g", i, ax.Data[i], b.Data[i])
		}
	}
	if _, err := ch.SolveMatrix(NewMatrix(2, 2)); !errors.Is(err, ErrShape) {
		t.Errorf("SolveMatrix shape: err = %v, want ErrShape", err)
	}
	if _, err := ch.SolveVec(make([]float64, 2), nil); !errors.Is(err, ErrShape) {
		t.Errorf("SolveVec shape: err = %v, want ErrShape", err)
	}
}

func TestWoodburyIdentityViaFactorizations(t *testing.T) {
	// Verifies (I + ρ GᵀG)⁻¹ = I − ρ Gᵀ(I + ρ GGᵀ)⁻¹ G, the
	// Sherman–Morrison–Woodbury identity used by the kernel trainer (eq. 20).
	rng := rand.New(rand.NewSource(22))
	const l, p, rho = 4, 9, 0.7
	g := randomMatrix(rng, l, p)

	big, err := MatMulT(g.T(), g.T()) // GᵀG, p×p
	if err != nil {
		t.Fatal(err)
	}
	big.Scale(rho)
	if err := big.AddScaledIdentity(1); err != nil {
		t.Fatal(err)
	}
	chBig, err := FactorizeCholesky(big)
	if err != nil {
		t.Fatal(err)
	}
	lhs, err := chBig.Inverse()
	if err != nil {
		t.Fatal(err)
	}

	small, err := MatMulT(g, g) // GGᵀ, l×l
	if err != nil {
		t.Fatal(err)
	}
	small.Scale(rho)
	if err := small.AddScaledIdentity(1); err != nil {
		t.Fatal(err)
	}
	chSmall, err := FactorizeCholesky(small)
	if err != nil {
		t.Fatal(err)
	}
	smallInv, err := chSmall.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	mid, err := MatMul(smallInv, g)
	if err != nil {
		t.Fatal(err)
	}
	corr, err := MatMul(g.T(), mid)
	if err != nil {
		t.Fatal(err)
	}
	corr.Scale(-rho)
	if err := corr.AddScaledIdentity(1); err != nil {
		t.Fatal(err)
	}

	for i := range lhs.Data {
		if !almostEqual(lhs.Data[i], corr.Data[i], 1e-8) {
			t.Fatalf("Woodbury identity violated at %d: %g vs %g", i, lhs.Data[i], corr.Data[i])
		}
	}
}

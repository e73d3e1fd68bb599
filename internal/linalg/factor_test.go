package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// choleskyOracle is the unblocked column-at-a-time factorization the blocked
// one replaced: the reference the factor is checked against.
func choleskyOracle(a *Matrix) (*Matrix, error) {
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		lj := l.Row(j)
		d := a.At(j, j) - Dot(lj[:j], lj[:j])
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w: pivot %d is %g", ErrNotSPD, j, d)
		}
		diag := math.Sqrt(d)
		lj[j] = diag
		inv := 1 / diag
		for i := j + 1; i < n; i++ {
			li := l.Row(i)
			li[j] = (a.At(i, j) - Dot(li[:j], lj[:j])) * inv
		}
	}
	return l, nil
}

// rbfSystem is the VK learner's system I + ρ·K over n Gaussian rows in d
// dimensions with the RBF kernel exp(−γ‖x−y‖²) (internal/kernel imports this
// package, so the Gram is spelled out here).
func rbfSystem(seed int64, n, d int, gamma, rho float64) *Matrix {
	x := randomDense(seed, n, d)
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			k := rho * math.Exp(-gamma*Dist2Sq(x.Row(i), x.Row(j)))
			a.Set(i, j, k)
			a.Set(j, i, k)
		}
		a.Data[i*n+i]++
	}
	return a
}

// TestCholeskyMatchesOracle pins the factor's numerical contract: the first
// panel is the unblocked loop, so orders ≤ cholPanel are bit-identical to it;
// above that each entry splits its sum at the panel edge, so L agrees with
// the oracle to rounding and reconstructs A. Both entry points give the same
// bits, the copying one leaves a alone, and the pure-Go tile twin meets the
// same bounds as the AVX2 microkernel.
func TestCholeskyMatchesOracle(t *testing.T) {
	fmas := []bool{hasFMA}
	if hasFMA {
		fmas = append(fmas, false)
		defer func() { hasFMA = true }()
	}
	for _, fma := range fmas {
		hasFMA = fma
		for _, n := range []int{1, 2, 31, 32, 33, 63, 64, 65, 97, 600} {
			rng := rand.New(rand.NewSource(int64(n)))
			systems := map[string]*Matrix{
				"randomSPD": randomSPD(rng, n),
				"I+ρK":      rbfSystem(int64(n), n, 16, 1.0/16, 100),
			}
			for name, a := range systems {
				t.Run(fmt.Sprintf("fma=%v/%s/n=%d", fma, name, n), func(t *testing.T) {
					checkFactor(t, a)
				})
			}
		}
	}
}

func checkFactor(t *testing.T, a *Matrix) {
	t.Helper()
	n := a.Rows
	orig := a.Clone()
	want, err := choleskyOracle(a)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := FactorizeCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range a.Data {
		if v != orig.Data[i] {
			t.Fatalf("FactorizeCholesky modified a at %d", i)
		}
	}
	inPlace := a.Clone()
	chIn, err := FactorizeCholeskyInPlace(inPlace)
	if err != nil {
		t.Fatal(err)
	}
	if chIn.l != inPlace {
		t.Error("the in-place factor does not alias its argument")
	}
	got := ch.l
	for i := range got.Data {
		if inPlace.Data[i] != got.Data[i] {
			t.Fatalf("in-place and copying factors differ at %d: %g vs %g", i, inPlace.Data[i], got.Data[i])
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if v := got.At(i, j); v != 0 {
				t.Fatalf("upper triangle (%d,%d) = %g, want 0", i, j, v)
			}
		}
	}
	if n <= cholPanel {
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("n ≤ %d: differs from the unblocked loop at %d: %g vs %g", cholPanel, i, got.Data[i], want.Data[i])
			}
		}
		return
	}
	var dl float64
	for i := range got.Data {
		dl = math.Max(dl, math.Abs(got.Data[i]-want.Data[i]))
	}
	if dl > 1e-11 {
		t.Errorf("max |L − L_oracle| = %g > 1e-11", dl)
	}
	llt, err := MatMulT(got, got)
	if err != nil {
		t.Fatal(err)
	}
	var res float64
	for i := range llt.Data {
		res = math.Max(res, math.Abs(llt.Data[i]-orig.Data[i]))
	}
	scale := NormInf(orig.Data)
	if res > 1e-12*scale {
		t.Errorf("‖LLᵀ − A‖_max = %g > 1e-12·‖A‖_max = %g", res, 1e-12*scale)
	}
	t.Logf("max |L − L_oracle| = %.3g, ‖LLᵀ − A‖_max / ‖A‖_max = %.3g", dl, res/scale)
}

// TestCholeskyLaterPanelPivot: a matrix SPD in its leading 70 × 70 and
// indefinite at 71 fails in the third panel, naming pivot 70, through both
// entry points.
func TestCholeskyLaterPanelPivot(t *testing.T) {
	a := randomSPD(rand.New(rand.NewSource(70)), 100)
	a.Set(70, 70, -1)
	if _, err := choleskyOracle(a); err == nil || !strings.Contains(err.Error(), "pivot 70 ") {
		t.Fatalf("oracle: err = %v, want pivot 70", err)
	}
	for name, factor := range map[string]func(*Matrix) (*Cholesky, error){
		"copy": FactorizeCholesky, "in place": FactorizeCholeskyInPlace,
	} {
		_, err := factor(a.Clone())
		if !errors.Is(err, ErrNotSPD) || !strings.Contains(err.Error(), "pivot 70 ") {
			t.Errorf("%s: err = %v, want ErrNotSPD at pivot 70", name, err)
		}
	}
}

func TestCholeskyReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{1, 2, 3, 8, 25} {
		a := randomSPD(rng, n)
		ch, err := FactorizeCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if ch.l.Rows != n {
			t.Fatalf("factor has %d rows, want %d", ch.l.Rows, n)
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

// solveVecScalar is the substitution SolveVec replaced, kept as its
// reference: the forward pass a scalar chain of subtractions along each row
// of L, the back pass one along each column of L, read with At.
func solveVecScalar(l *Matrix, b []float64) []float64 {
	n := l.Rows
	dst := append([]float64(nil), b...)
	// Forward substitution: L y = b.
	for i := 0; i < n; i++ {
		li := l.Row(i)
		s := dst[i]
		for k := 0; k < i; k++ {
			s -= li[k] * dst[k]
		}
		dst[i] = s / li[i]
	}
	// Back substitution: Lᵀ x = y.
	for i := n - 1; i >= 0; i-- {
		s := dst[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * dst[k]
		}
		dst[i] = s / l.At(i, i)
	}
	return dst
}

// TestSolveVecMatchesScalarLoops pins the row-oriented solve (a Dot per row
// forward, an Axpy per row of L back) against the scalar loops it replaced,
// on every order 1–9, at and around the 32-column panel edge, at 70, and on
// a vk_scores learner's system I + 100·K_RBF at n = 600.
//
// The bounds are the backward-error ones, so they hold for any summation
// order (Higham, Accuracy and Stability, Thm 10.4): the computed x solves
// (A + ΔA) x = b with |ΔA| ≤ γ(3n+1)·|L||Lᵀ|, γ(k) ≈ k·u. With
// M = ‖|L||Lᵀ|‖∞, which bounds ‖A‖∞ and ‖b‖∞/‖x‖∞ too:
//   - ‖Ax − b‖∞ ≤ 6(n+1)·u·M·‖x‖∞, the solve's 3n+1 and 2(n+1) for
//     evaluating the residual;
//   - ‖x − x_ref‖∞ ≤ 2·(3n+1)·u·‖A⁻¹‖∞·M·(‖x‖∞ + ‖x_ref‖∞), both solves'
//     perturbations through A⁻¹, a factor 2 over first order. Every system
//     here is s·I plus a PSD matrix, so ‖A⁻¹‖∞ ≤ √n·‖A⁻¹‖₂ ≤ √n/s.
//
// A solve into dst = b gives the same bits as into a fresh dst.
func TestSolveVecMatchesScalarLoops(t *testing.T) {
	const u = 0x1p-53
	type system struct {
		name  string
		a     *Matrix
		shift float64 // A − shift·I is PSD
	}
	rng := rand.New(rand.NewSource(38))
	var systems []system
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 70} {
		systems = append(systems, system{fmt.Sprintf("n=%d", n), randomSPD(rng, n), float64(n)})
	}
	systems = append(systems, system{"vk 600", rbfSystem(2, 600, 16, 1.0/16, 100), 1})
	for _, s := range systems {
		n := s.a.Rows
		ch, err := FactorizeCholesky(s.a)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := ch.SolveVec(b, nil)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		ref := solveVecScalar(ch.l, b)

		// M = max_i Σ_k |L_ik|·Σ_j |L_jk|.
		colAbs := make([]float64, n)
		for j := 0; j < n; j++ {
			for k, v := range ch.l.Row(j) {
				colAbs[k] += math.Abs(v)
			}
		}
		var m float64
		for i := 0; i < n; i++ {
			var r float64
			for k, v := range ch.l.Row(i) {
				r += math.Abs(v) * colAbs[k]
			}
			m = max(m, r)
		}
		nf := float64(n)

		ax, err := s.a.MulVec(x, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, resBound := NormInf(SubVec(ax, b, nil)), 6*(nf+1)*u*m*NormInf(x)
		if res > resBound {
			t.Errorf("%s: ‖Ax − b‖∞ = %.3g, bound %.3g", s.name, res, resBound)
		}
		diff, diffBound := NormInf(SubVec(x, ref, nil)), 2*(3*nf+1)*u*math.Sqrt(nf)/s.shift*m*(NormInf(x)+NormInf(ref))
		if diff > diffBound {
			t.Errorf("%s: ‖x − x_ref‖∞ = %.3g, bound %.3g", s.name, diff, diffBound)
		}
		t.Logf("%s: ‖Ax − b‖∞ %.3g (bound %.3g), ‖x − x_ref‖∞/‖x_ref‖∞ %.3g (bound %.3g)",
			s.name, res, resBound, diff/NormInf(ref), diffBound/NormInf(ref))

		alias := append([]float64(nil), b...)
		if _, err := ch.SolveVec(alias, alias); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Float64bits(alias[i]) != math.Float64bits(x[i]) {
				t.Fatalf("%s: solve into b differs at %d: %g vs %g", s.name, i, alias[i], x[i])
			}
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
	if _, err := FactorizeCholeskyInPlace(NewMatrix(2, 3)); !errors.Is(err, ErrShape) {
		t.Errorf("non-square in place: err = %v, want ErrShape", err)
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
	// A dst of the wrong length is a shape error, as in MulVec, not an index
	// panic (short) or a solution with a stale tail (long).
	for _, m := range []int{0, 4, 6} {
		if _, err := ch.SolveVec(make([]float64, 5), make([]float64, m)); !errors.Is(err, ErrShape) {
			t.Errorf("SolveVec dst length %d: err = %v, want ErrShape", m, err)
		}
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

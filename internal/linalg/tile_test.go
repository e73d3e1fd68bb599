package linalg

import (
	"math"
	"testing"
)

// maxRelDiff returns the largest relative element difference between two
// equal-length slices.
func maxRelDiff(t *testing.T, got, want []float64) float64 {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length mismatch: %d vs %d", len(got), len(want))
	}
	var worst float64
	for i := range got {
		diff := math.Abs(got[i] - want[i])
		scale := math.Max(math.Abs(want[i]), 1)
		if r := diff / scale; r > worst {
			worst = r
		}
	}
	return worst
}

// matMulNaive is the reference triple loop of MatMul (a · b, shapes the
// caller's contract): what the tiled kernels are checked and timed against.
func matMulNaive(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		orow := out.Row(i)
		for k, av := range a.Row(i) {
			if av == 0 {
				continue
			}
			Axpy(av, b.Row(k), orow)
		}
	}
	return out
}

// matMulTNaive is the reference row-dot loop of MatMulT (a · bᵀ).
func matMulTNaive(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		orow := out.Row(i)
		for j := range orow {
			orow[j] = Dot(a.Row(i), b.Row(j))
		}
	}
	return out
}

// TestTiledMatchesNaive pins the numerical contract of the tiled kernels:
// they may reassociate the k-sum (FMA lanes, tile accumulators), so results
// agree with the reference triple loops to floating-point tolerance — far
// tighter than the 2^-30 fixed-point resolution the protocol quantizes to.
func TestTiledMatchesNaive(t *testing.T) {
	const tol = 1e-12
	shapes := []struct{ r, k, c int }{
		{1, 1, 1}, {2, 4, 4}, {3, 5, 7}, {8, 16, 8}, {13, 50, 9},
		{64, 33, 17}, {31, 64, 31}, {40, 128, 6},
	}
	for _, s := range shapes {
		a := randomDense(int64(s.r*1000+s.k), s.r, s.k)
		b := randomDense(int64(s.c*1000+s.k), s.k, s.c)
		want := matMulNaive(a, b)
		got, err := MatMul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if r := maxRelDiff(t, got.Data, want.Data); r > tol {
			t.Errorf("MatMul %dx%dx%d: rel diff %g > %g", s.r, s.k, s.c, r, tol)
		}

		bt := randomDense(int64(s.c*7000+s.k), s.c, s.k)
		wantT := matMulTNaive(a, bt)
		gotT, err := MatMulT(a, bt)
		if err != nil {
			t.Fatal(err)
		}
		if r := maxRelDiff(t, gotT.Data, wantT.Data); r > tol {
			t.Errorf("MatMulT %dx%dx%d: rel diff %g > %g", s.r, s.k, s.c, r, tol)
		}
	}
}

// TestMulVecMatchesReference checks the tiled/vectorized MulVec against a
// plain per-row dot loop across odd shapes.
func TestMulVecMatchesReference(t *testing.T) {
	const tol = 1e-12
	for _, s := range []struct{ r, c int }{{1, 1}, {2, 3}, {5, 17}, {33, 64}, {64, 50}} {
		m := randomDense(int64(s.r*100+s.c), s.r, s.c)
		x := randomDense(int64(s.c), 1, s.c).Data
		want := make([]float64, s.r)
		for i := 0; i < s.r; i++ {
			var sum float64
			for k, v := range m.Row(i) {
				sum += v * x[k]
			}
			want[i] = sum
		}
		got, err := m.MulVec(x, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r := maxRelDiff(t, got, want); r > tol {
			t.Errorf("MulVec %dx%d: rel diff %g > %g", s.r, s.c, r, tol)
		}
	}
}

// TestMatMulIntoReuse pins the dst-reuse contract of the Into variants:
// nil allocates, sufficient capacity reuses the backing array in place
// (the zero-alloc steady-state path), and a too-small dst fails loudly.
func TestMatMulIntoReuse(t *testing.T) {
	a := randomDense(1, 6, 4)
	b := randomDense(2, 4, 5)

	fresh, err := MatMulInto(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Rows != 6 || fresh.Cols != 5 {
		t.Fatalf("nil dst: got %dx%d, want 6x5", fresh.Rows, fresh.Cols)
	}

	// Reuse: same backing array, reshaped in place.
	dst := NewMatrix(5, 6) // same capacity, different shape
	backing := &dst.Data[:1][0]
	out, err := MatMulInto(a, b, dst)
	if err != nil {
		t.Fatal(err)
	}
	if out != dst || &out.Data[:1][0] != backing {
		t.Error("sufficient-capacity dst was not reused in place")
	}
	if out.Rows != 6 || out.Cols != 5 {
		t.Errorf("reused dst: got %dx%d, want 6x5", out.Rows, out.Cols)
	}
	if r := maxRelDiff(t, out.Data, fresh.Data); r != 0 {
		t.Errorf("reused dst differs from fresh result: %g", r)
	}

	// Too small: loud error, dst untouched.
	if _, err := MatMulInto(a, b, NewMatrix(2, 2)); err == nil {
		t.Error("too-small dst: want error, got nil")
	}

	// Same contract for MatMulTInto.
	c := randomDense(3, 7, 4)
	freshT, err := MatMulTInto(a, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	dstT := NewMatrix(6, 7)
	outT, err := MatMulTInto(a, c, dstT)
	if err != nil {
		t.Fatal(err)
	}
	if outT != dstT {
		t.Error("MatMulTInto did not reuse sufficient-capacity dst")
	}
	if r := maxRelDiff(t, outT.Data, freshT.Data); r != 0 {
		t.Errorf("MatMulTInto reused dst differs from fresh result: %g", r)
	}
	if _, err := MatMulTInto(a, c, NewMatrix(1, 1)); err == nil {
		t.Error("MatMulTInto too-small dst: want error, got nil")
	}
}

// TestTiledFallbackMatchesFMA compares the pure-Go tile path against the
// assembly path directly (amd64 only — elsewhere hasFMA is already false and
// the test is vacuous). Both orders reassociate, so tolerance applies.
func TestTiledFallbackMatchesFMA(t *testing.T) {
	if !hasFMA {
		t.Skip("no FMA kernels on this host")
	}
	const tol = 1e-12
	a := randomDense(11, 37, 53)
	b := randomDense(12, 29, 53)
	x := randomDense(13, 1, 53).Data

	withFMA, err := MatMulT(a, b)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := a.MulVec(x, nil)
	if err != nil {
		t.Fatal(err)
	}

	hasFMA = false
	pure, err := MatMulT(a, b)
	hasFMA = true
	if err != nil {
		t.Fatal(err)
	}
	if r := maxRelDiff(t, withFMA.Data, pure.Data); r > tol {
		t.Errorf("FMA vs pure-Go MatMulT: rel diff %g > %g", r, tol)
	}

	hasFMA = false
	v2, err := a.MulVec(x, nil)
	hasFMA = true
	if err != nil {
		t.Fatal(err)
	}
	if r := maxRelDiff(t, v1, v2); r > tol {
		t.Errorf("FMA vs pure-Go MulVec: rel diff %g > %g", r, tol)
	}
}

// TestZeroWidthShapes exercises the d == 0 guards.
func TestZeroWidthShapes(t *testing.T) {
	a := NewMatrix(3, 0)
	b := NewMatrix(0, 4)
	out, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out.Data {
		if v != 0 {
			t.Fatalf("MatMul with k=0: element %d = %g, want 0", i, v)
		}
	}
	if got, err := a.MulVec(nil, nil); err != nil || len(got) != 3 {
		t.Fatalf("MulVec with 0 cols: %v, len %d", err, len(got))
	}
}

// TestTileKernelDoesNotAllocate pins the tiled kernels to the allocations of
// their output and the worker fan-out. The 2×4 accumulator array is handed to
// the assembly microkernel by pointer; an assembly stub without //go:noescape
// moves it to the heap once per tile (31,000 times on this shape).
func TestTileKernelDoesNotAllocate(t *testing.T) {
	if !hasFMA {
		t.Skip("the pure-Go tile returns its accumulators in registers")
	}
	a := randomDense(1, 1000, 64)
	b := randomDense(2, 250, 64)
	out := NewMatrix(a.Rows, b.Rows)
	if n := testing.AllocsPerRun(5, func() { MatMulTRows(a, b, out, 0, a.Rows) }); n != 0 {
		t.Errorf("MatMulTRows: %.0f allocations per call, want 0", n)
	}
	if n := testing.AllocsPerRun(5, func() {
		if _, err := MatMulT(a, b); err != nil {
			t.Fatal(err)
		}
	}); n > 16 {
		t.Errorf("MatMulT: %.0f allocations per call, want the output and the worker fan-out (at most 16)", n)
	}
}

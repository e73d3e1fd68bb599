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

// TestTiledMatchesNaive pins the numerical contract of the tiled kernels
// against the reference loops: an output is one FMA chain where the
// references round every product or, through Dot, fold 16 lane chains, so
// results agree to floating-point tolerance — far tighter than the 2^-30 fixed-point
// resolution the protocol quantizes to.
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

// TestMulVecMatchesReference checks MulVec against a plain per-row dot loop
// across odd shapes, with the assembly dot and with its Go twin: Dot's lane
// sums are not the loop's one running sum, so they agree to tolerance, not
// bits.
func TestMulVecMatchesReference(t *testing.T) {
	fmas := []bool{false}
	if hasFMA {
		fmas = append(fmas, true)
		defer func() { hasFMA = true }()
	}
	for _, fma := range fmas {
		hasFMA = fma
		checkMulVec(t)
	}
}

func checkMulVec(t *testing.T) {
	t.Helper()
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
			t.Errorf("fma=%v: MulVec %dx%d: rel diff %g > %g", hasFMA, s.r, s.c, r, tol)
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

// TestTileKernelDoesNotAllocate pins the tile path to no allocation of its
// own. MatMulTRows with its pack, grabbed from and returned to the pool,
// allocates nothing, on every body this host runs: the row arrays and the
// edge buffer are handed to tileAVX512 and tileFMA by pointer, and an
// assembly stub without //go:noescape would move them to the heap once per
// row tile. Under the race detector sync.Pool drops a quarter of its Puts; a
// run then allocates a pack, and averaging over 100 runs keeps the count at 0.
func TestTileKernelDoesNotAllocate(t *testing.T) {
	a := randomDense(1, 301, 64) // an edge row tile
	b := randomDense(2, 250, 64) // an edge panel
	out := NewMatrix(a.Rows, b.Rows)
	for _, body := range HostBodies() {
		restore := body.Use()
		if n := testing.AllocsPerRun(100, func() {
			p := PackT(b)
			MatMulTRows(a, p, out, 0, a.Rows)
			p.Release()
		}); n != 0 {
			t.Errorf("%s: MatMulTRows with its pack: %.0f allocations per call, want 0", body.Name, n)
		}
		restore()
	}
	if n := testing.AllocsPerRun(5, func() {
		if _, err := MatMulT(a, b); err != nil {
			t.Fatal(err)
		}
	}); n > 16 {
		t.Errorf("MatMulT: %.0f allocations per call, want the output and the worker fan-out (at most 16)", n)
	}
}

package linalg

import "testing"

// Tiled-vs-naive pairs: the Naive variants run the reference loops of
// tile_test.go, the Tiled variants the production kernels, and the purego
// sub-benchmark the production kernels without the AVX2 microkernel — the
// layer's A/B, one `go test -bench MatMul` away.

// sink keeps the reference loops' results live.
var sink *Matrix

func BenchmarkTiledMatMul500(b *testing.B) {
	x := benchMatrix(500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatMul(x, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNaiveMatMul500(b *testing.B) {
	x := benchMatrix(500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = matMulNaive(x, x)
	}
}

func benchTall(r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = float64(i%17) * 0.25
	}
	return m
}

func BenchmarkTiledMatMulT2000x50(b *testing.B) {
	a := benchTall(2000, 50)
	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := MatMulT(a, a); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("default", run)
	b.Run("purego", func(b *testing.B) {
		defer func(prev bool) { hasFMA = prev }(hasFMA)
		hasFMA = false
		run(b)
	})
}

func BenchmarkNaiveMatMulT2000x50(b *testing.B) {
	a := benchTall(2000, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = matMulTNaive(a, a)
	}
}

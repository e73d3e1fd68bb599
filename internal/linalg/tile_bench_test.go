package linalg

import "testing"

// Tiled-vs-naive pairs: the Naive variants run the reference loops of
// tile_test.go, the Tiled variants the production kernels, and the avx512,
// avx2 and purego sub-benchmarks the production kernels on each body of the
// tile — the layer's A/B, one `go test -bench MatMul` away.

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
	benchBodies(b, run)
}

// benchBodies runs run as one sub-benchmark per body (avx512, avx2, purego),
// so each body's number reproduces; a body this host lacks is skipped, naming
// the feature it misses.
func benchBodies(b *testing.B, run func(b *testing.B)) {
	for _, body := range Bodies {
		b.Run(body.Name, func(b *testing.B) {
			if m := body.Missing(); m != "" {
				b.Skipf("this host has no %s", m)
			}
			defer body.Use()()
			run(b)
		})
	}
}

func BenchmarkNaiveMatMulT2000x50(b *testing.B) {
	a := benchTall(2000, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = matMulTNaive(a, a)
	}
}

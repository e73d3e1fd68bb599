package kernel

import (
	"math/rand"
	"testing"

	"github.com/ppml-go/ppml/internal/linalg"
)

func benchSamples(n, k int) *linalg.Matrix {
	rng := rand.New(rand.NewSource(1))
	m := linalg.NewMatrix(n, k)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func BenchmarkGramRBF300x20(b *testing.B) {
	x := benchSamples(300, 20)
	k := RBF{Gamma: 0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GramMatrix(k, x)
	}
}

func BenchmarkGramRBF2000x50(b *testing.B) {
	x := benchSamples(2000, 50)
	k := RBF{Gamma: 0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GramMatrix(k, x)
	}
}

func BenchmarkGramLinear300x20(b *testing.B) {
	x := benchSamples(300, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GramMatrix(Linear{}, x)
	}
}

// BenchmarkAccumulate times one accuracy probe's worth of kernel scoring at
// the shapes of the two kernel workloads of bench/: vk_scores (each of 4
// learners scores 600 eval rows against its 600 × 16 block) and hk_landmarks
// (1000 eval rows of 64 features against 4 learners' 250 support rows and the
// 30 landmarks). Linear is the same walk with no transform: the difference is
// what the row transform costs. Each runs on every body of linalg's kernels:
// avx512, avx2 and purego.
func BenchmarkAccumulate(b *testing.B) {
	type call struct {
		x, support *linalg.Matrix
		coef       []float64
	}
	coef := func(n int) []float64 {
		c := make([]float64, n)
		for j := range c {
			c[j] = 1 / float64(j+1)
		}
		return c
	}
	vkX, vkS := benchSamples(600, 16), benchSamples(600, 16)
	hkX, hkS, hkL := benchSamples(1000, 64), benchSamples(250, 64), benchSamples(30, 64)
	vk := call{vkX, vkS, coef(600)}
	hk, hkLm := call{hkX, hkS, coef(250)}, call{hkX, hkL, coef(30)}
	shapes := []struct {
		name  string
		calls []call
	}{
		{"vk_4x600x600x16", []call{vk, vk, vk, vk}},
		{"hk_1000x1030x64", []call{hk, hk, hk, hk, hkLm}},
	}
	for _, s := range shapes {
		for _, kk := range []struct {
			name string
			k    Kernel
		}{{"rbf", RBF{Gamma: 1.0 / 16}}, {"lin", Linear{}}} {
			k := kk.k
			dst := make([]float64, s.calls[0].x.Rows)
			b.Run(s.name+"/"+kk.name, func(b *testing.B) {
				benchBodies(b, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						for _, c := range s.calls {
							if err := Accumulate(k, c.x, c.support, c.coef, dst); err != nil {
								b.Fatal(err)
							}
						}
					}
				})
			})
		}
	}
}

package linalg

import (
	"math/rand"
	"testing"

	"github.com/ppml-go/ppml/internal/parallel"
)

// withWorkers runs fn under each worker count and compares every result to
// the single-worker reference with exact equality: the parallel paths
// partition rows without changing per-element arithmetic, so the results
// must be bit-identical.
func withWorkers(t *testing.T, counts []int, fn func() []float64) [][]float64 {
	t.Helper()
	var out [][]float64
	for _, w := range counts {
		prev := parallel.SetWorkers(w)
		out = append(out, fn())
		parallel.SetWorkers(prev)
	}
	return out
}

func requireSame(t *testing.T, name string, results [][]float64) {
	t.Helper()
	ref := results[0]
	for ri, r := range results[1:] {
		if len(r) != len(ref) {
			t.Fatalf("%s: result %d has length %d, want %d", name, ri+1, len(r), len(ref))
		}
		for i := range r {
			if r[i] != ref[i] {
				t.Fatalf("%s: result %d differs at %d: %g vs %g", name, ri+1, i, r[i], ref[i])
			}
		}
	}
}

func randomDense(seed int64, r, c int) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestMatMulParallelMatchesSequential(t *testing.T) {
	// 40 stays under the parallel cutoff, 120+ crosses it.
	for _, n := range []int{1, 7, 40, 120, 260} {
		a := randomDense(int64(n), n, n+3)
		b := randomDense(int64(n)+100, n+3, n)
		results := withWorkers(t, []int{1, 3, 8}, func() []float64 {
			out, err := MatMul(a, b)
			if err != nil {
				t.Fatal(err)
			}
			return out.Data
		})
		requireSame(t, "MatMul", results)

		resultsT := withWorkers(t, []int{1, 3, 8}, func() []float64 {
			out, err := MatMulT(a, a)
			if err != nil {
				t.Fatal(err)
			}
			return out.Data
		})
		requireSame(t, "MatMulT", resultsT)
	}
}

func TestMulVecParallelMatchesSequential(t *testing.T) {
	for _, n := range []int{5, 90, 600} {
		m := randomDense(int64(n), n, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i%13) - 6
		}
		results := withWorkers(t, []int{1, 2, 7}, func() []float64 {
			out, err := m.MulVec(x, nil)
			if err != nil {
				t.Fatal(err)
			}
			return out
		})
		requireSame(t, "MulVec", results)
	}
}

func TestCholeskyParallelMatchesSequential(t *testing.T) {
	for _, n := range []int{10, 33, 80, 300, 600} {
		rng := rand.New(rand.NewSource(int64(n)))
		a := randomSPD(rng, n)
		results := withWorkers(t, []int{1, 2, 3, 16}, func() []float64 {
			ch, err := FactorizeCholesky(a)
			if err != nil {
				t.Fatal(err)
			}
			return append([]float64(nil), ch.l.Data...)
		})
		requireSame(t, "Cholesky", results)
	}
}

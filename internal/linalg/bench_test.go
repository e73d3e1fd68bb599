package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func benchMatrix(n int) *Matrix {
	rng := rand.New(rand.NewSource(1))
	m := NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func BenchmarkMatMul100(b *testing.B) {
	x := benchMatrix(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatMul(x, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMul500(b *testing.B) {
	x := benchMatrix(500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatMul(x, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMulT100(b *testing.B) {
	x := benchMatrix(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatMulT(x, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMulVec500(b *testing.B) {
	x := benchMatrix(500)
	v := make([]float64, 500)
	dst := make([]float64, 500)
	for i := range v {
		v[i] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := x.MulVec(v, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholeskyFactorize200(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := randomSPD(rng, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FactorizeCholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCholeskyFactorize600 factors a vk_scores learner's system:
// I + 100·K_RBF over 600 × 16 Gaussian rows, γ = 1/16.
func BenchmarkCholeskyFactorize600(b *testing.B) {
	a := rbfSystem(2, 600, 16, 1.0/16, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FactorizeCholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholeskySolve200(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := randomSPD(rng, 200)
	ch, err := FactorizeCholesky(a)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, 200)
	dst := make([]float64, 200)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ch.SolveVec(rhs, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCholeskySolve600 is a vk_scores learner's per-round ridge solve:
// both substitutions on the factor of BenchmarkCholeskyFactorize600's
// system. The purego sub-benchmark runs Dot and Axpy as their Go twins.
func BenchmarkCholeskySolve600(b *testing.B) {
	ch, err := FactorizeCholesky(rbfSystem(2, 600, 16, 1.0/16, 100))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	rhs, dst := make([]float64, 600), make([]float64, 600)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ch.SolveVec(rhs, dst); err != nil {
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

// benchVecs returns two length-n vectors for the vector kernels.
func benchVecs(n int) (x, y []float64) {
	x, y = make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(n - i)
	}
	return x, y
}

var dotSink float64

func BenchmarkDot1000(b *testing.B) {
	x, y := benchVecs(1000)
	for i := 0; i < b.N; i++ {
		dotSink = Dot(x, y)
	}
}

// BenchmarkDot28 and BenchmarkAxpy28 are the dot and the axpy of one HL
// coordinate step at the bench's k = 28 features, which LinearSweep runs
// inline (BenchmarkLinearSweep).
func BenchmarkDot28(b *testing.B) {
	x, y := benchVecs(28)
	for i := 0; i < b.N; i++ {
		dotSink = Dot(x, y)
	}
}

func BenchmarkAxpy28(b *testing.B) {
	x, y := benchVecs(28)
	for i := 0; i < b.N; i++ {
		Axpy(1e-9, x, y)
	}
}

var indexSink int

// BenchmarkAxpyMaxViolator250 is one HK Gauss–Southwell step (qp.SolveBox)
// at the hk_landmarks learner's n = 250 rows: the gradient update and the
// next coordinate's selection in one pass, λ spread over both faces and the
// interior. The purego sub-benchmark is its Go twin.
func BenchmarkAxpyMaxViolator250(b *testing.B) {
	x, grad := benchVecs(250)
	lambda := make([]float64, len(x))
	for i := range lambda {
		lambda[i] = float64(i%3) / 2
	}
	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			indexSink = AxpyMaxViolator(1e-9, x, grad, lambda, 1, 1e-6)
		}
	}
	b.Run("default", run)
	b.Run("purego", func(b *testing.B) {
		defer func(prev bool) { hasFMA = prev }(hasFMA)
		hasFMA = false
		run(b)
	})
}

// BenchmarkRBFRow664 is one panel row of the hk_landmarks probe's kernel
// transform (1,000 eval rows against 664 support rows): the distance from
// dot and norms, the clamp, the −γ scale and the exp in one pass over 664
// elements, at γ = 1/64 on dots and norms of 64 standard-normal features,
// on each body: avx512, avx2 and purego, the Go twin.
func BenchmarkRBFRow664(b *testing.B) {
	const n = 664
	rng := rand.New(rand.NewSource(4))
	dots, sq, row := make([]float64, n), make([]float64, n), make([]float64, n)
	for j := range dots {
		dots[j] = 8 * rng.NormFloat64()
		sq[j] = 64 + 11*rng.NormFloat64()
	}
	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(row, dots)
			RBFRow(row, 64, sq, 1.0/64)
		}
	}
	benchBodies(b, run)
}

// BenchmarkLinearSweep is the first sweep of a cold HL local solve
// (qp.SolveLinearBox) at the hl_rows learner's shape: 200 rows of 28
// features around two class means, η = 4/401, σ = 0.01, C = 50, p = −1, from
// λ = 0. Each op restores λ, v, s and active, then sweeps all 200 rows. The
// purego sub-benchmark is its Go twin.
func BenchmarkLinearSweep(b *testing.B) {
	const n, k = 200, 28
	rng := rand.New(rand.NewSource(4))
	st := SweepState{
		X: make([]float64, n*k), Y: make([]float64, n), P: make([]float64, n), QD: make([]float64, n),
		Lambda: make([]float64, n), V: make([]float64, k), K: k,
		Eta: 4.0 / 401, Sigma: 0.01, C: 50, Tau: 1e-12, Tol: 1e-6, MaxIter: 1 << 30,
		ShrinkAbove: math.Inf(1), ShrinkBelow: math.Inf(-1),
	}
	for i := 0; i < n; i++ {
		st.Y[i] = float64(2*rng.Intn(2) - 1)
		st.P[i] = -1
		row := st.X[i*k : i*k+k]
		for j := range row {
			row[j] = rng.NormFloat64() + 0.2*st.Y[i]
		}
		st.QD[i] = st.Eta*Dot(row, row) + st.Sigma
	}
	active := make([]int, n)
	run := func(b *testing.B) {
		steps := 0
		for i := 0; i < b.N; i++ {
			Zero(st.Lambda)
			Zero(st.V)
			st.S, st.Iter = 0, 0
			for j := range active {
				active[j] = j
			}
			LinearSweep(&st, active)
			steps += st.Iter
		}
		b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
	}
	b.Run("default", run)
	b.Run("purego", func(b *testing.B) {
		defer func(prev bool) { hasFMA = prev }(hasFMA)
		hasFMA = false
		run(b)
	})
}

package qp

import (
	"math/rand"
	"testing"

	"github.com/ppml-go/ppml/internal/linalg"
)

func benchProblem(n int, seed int64) (Problem, []float64) {
	rng := rand.New(rand.NewSource(seed))
	prob := randomProblem(rng, n, 2)
	return prob, randomLabels(rng, n)
}

func BenchmarkSolveBox200Cold(b *testing.B) {
	prob, _ := benchProblem(200, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveBox(prob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveBox200Warm(b *testing.B) {
	prob, _ := benchProblem(200, 1)
	res, err := SolveBox(prob)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveBox(prob, WithWarmStart(res.Lambda)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveEqualityBox200(b *testing.B) {
	prob, y := benchProblem(200, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveEqualityBox(prob, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveUniformDiag10000(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 10000
	p := make([]float64, n)
	for i := range p {
		p[i] = rng.NormFloat64()
	}
	y := randomLabels(rng, n)
	var scratch Scratch
	passes := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := SolveUniformDiagEqualityBox(0.04, p, 50, y, WithScratch(&scratch))
		if err != nil {
			b.Fatal(err)
		}
		passes += res.Iterations
	}
	b.ReportMetric(float64(passes)/float64(b.N), "passes/op")
}

// hlProblem is the HL local dual as hlMapper poses it (M′ = 4, ρ = 100,
// C = 50) over 200 overlapping two-class rows of 28 features: η = M′/(1+ρM′),
// σ = 1/ρ and P_i = ηρ·y_i·x_iᵀu + t·y_i − 1 around the centre (u, t).
func hlProblem(u []float64, t float64) LinearProblem {
	const n, k, mPrime, rho = 200, 28, 4, 100.0
	rng := rand.New(rand.NewSource(4))
	x := linalg.NewMatrix(n, k)
	y := randomLabels(rng, n)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			x.Data[i*k+j] = rng.NormFloat64() + 0.2*y[i]
		}
	}
	eta := mPrime / (1 + rho*mPrime)
	p := make([]float64, n)
	for i := range p {
		p[i] = eta*rho*y[i]*linalg.Dot(x.Row(i), u) + t*y[i] - 1
	}
	return LinearProblem{X: x, Y: y, Eta: eta, Sigma: 1 / rho, P: p, C: 50}
}

func benchSolveLinear(b *testing.B, prob LinearProblem, opts ...Option) {
	var scratch Scratch
	opts = append(opts, WithScratch(&scratch))
	steps := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := SolveLinearBox(prob, opts...)
		if err != nil || !res.Converged {
			b.Fatalf("converged %v, err %v", res != nil && res.Converged, err)
		}
		steps += res.Iterations
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
}

// BenchmarkSolveLinearBox200Cold is an HL mapper's first round: centre zero,
// no warm start.
func BenchmarkSolveLinearBox200Cold(b *testing.B) {
	benchSolveLinear(b, hlProblem(make([]float64, 28), 0))
}

// BenchmarkSolveLinearBox200Warm is its second: the centre moved to the first
// round's primal iterate, the solve warm-started from the first round's λ.
func BenchmarkSolveLinearBox200Warm(b *testing.B) {
	cold := hlProblem(make([]float64, 28), 0)
	res, err := SolveLinearBox(cold)
	if err != nil {
		b.Fatal(err)
	}
	w, sumYL := factors(cold, res.Lambda)
	for j := range w {
		w[j] *= cold.Eta
	}
	benchSolveLinear(b, hlProblem(w, sumYL*cold.Sigma), WithWarmStart(res.Lambda))
}

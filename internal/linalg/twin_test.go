package linalg_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/ppml-go/ppml/internal/kernel"
	"github.com/ppml-go/ppml/internal/linalg"
)

func gaussian(rng *rand.Rand, r, c int) *linalg.Matrix {
	m := linalg.NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// runOn returns f's result with the kernels on body b.
func runOn(b linalg.Body, f func() []float64) []float64 {
	defer b.Use()()
	return f()
}

// sameBits fails unless got and want are equal bit for bit. Two NaNs count as
// equal: which payload an operation on NaNs returns is the hardware's choice,
// not part of any kernel's contract.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: element %d = %.17g, %.17g with its Go twin", what, i, got[i], want[i])
		}
	}
}

// TestTiledFallbackMatchesFMA pins the tile's contract: every output is one
// FMA chain over k, so the AVX-512 tile, the AVX2 tile and their math.FMA twin
// give the same bits through every entry point that runs on them. The vector
// kernels keep the same rule: Dot, Axpy and MulVec (a Dot per row) equal
// their twins at every length up to 70, which leaves every residue mod 16 and
// mod 4, from unaligned starts, and with ±Inf or NaN planted, and so does the
// Cholesky solve (a Dot and an Axpy per row of L). The shapes leave every
// edge: row counts at each residue mod the tile's rows (and two kernel
// panels, the second short), column counts at each residue mod the 8-column
// panel and one narrower than a panel, k = 0 (the zero fill) and k short and
// long. MatMulTRows from row 1 shifts every row to another place in its tile.
// The tile alone runs 1–9 full panels, odd counts ending on the AVX-512
// body's one-panel pass, with and without an edge panel, at k from 1 to 70,
// on entries with NaN, ±0, ±Inf and ±1e308 planted. On a host without the
// assembly the test is vacuous.
func TestTiledFallbackMatchesFMA(t *testing.T) {
	bodies := linalg.HostBodies()
	if len(bodies) == 1 {
		t.Skip("no FMA kernels on this host")
	}
	// twin runs f on the Go twins and then on every assembly body and
	// compares.
	twin := func(what string, f func() []float64) {
		t.Helper()
		goTwin := runOn(bodies[len(bodies)-1], f)
		for _, b := range bodies[:len(bodies)-1] {
			sameBits(t, b.Name+" "+what, runOn(b, f), goTwin)
		}
	}
	must := func(m *linalg.Matrix, err error) []float64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return m.Data
	}
	rng := rand.New(rand.NewSource(31))
	cols := []int{5, 16, 17, 18, 19, 20, 21, 22, 23}
	rbf := kernel.RBF{Gamma: 0.05}
	for ρ := 0; ρ < linalg.TileM; ρ++ {
		r := 11*linalg.TileM + ρ
		for _, c := range cols {
			for _, k := range []int{0, 1, 3, 16, 17, 64} {
				name := fmt.Sprintf("%dx%dx%d", r, k, c)
				a, b, bt := gaussian(rng, r, k), gaussian(rng, k, c), gaussian(rng, c, k)
				twin("MatMul "+name, func() []float64 { return must(linalg.MatMul(a, b)) })
				full := must(linalg.MatMulT(a, bt))
				twin("MatMulT "+name, func() []float64 { return must(linalg.MatMulT(a, bt)) })
				twin("MatMulTRows "+name, func() []float64 {
					out := linalg.NewMatrix(r, c)
					p := linalg.PackT(bt)
					defer p.Release()
					linalg.MatMulTRows(a, p, out, 1, r)
					sameBits(t, "MatMulTRows from row 1 against MatMulT "+name, out.Data[c:], full[c:])
					return out.Data
				})
				twin("kernel.Matrix "+name, func() []float64 { return must(kernel.Matrix(rbf, a, bt)) })
				twin("kernel.GramMatrix "+name, func() []float64 { return kernel.GramMatrix(rbf, a).Data })
				coef := make([]float64, c)
				for j := range coef {
					if j%3 != 0 {
						coef[j] = math.Sin(float64(j))
					}
				}
				twin("kernel.Accumulate "+name, func() []float64 {
					dst := make([]float64, r)
					if err := kernel.Accumulate(rbf, a, bt, coef, dst); err != nil {
						t.Fatal(err)
					}
					return dst
				})
			}
		}
	}
	specials := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1e308, -1e308}
	for panels := 1; panels <= 9; panels++ {
		for _, edge := range []int{0, 3} {
			c := 8*panels + edge
			for _, k := range []int{1, 2, 15, 16, 17, 64, 70} {
				a, bt := gaussian(rng, 13, k), gaussian(rng, c, k)
				for i, v := range specials {
					a.Data[(i*37)%len(a.Data)] = v
					bt.Data[(i*53+k)%len(bt.Data)] = v
				}
				name := fmt.Sprintf("tile 13x%dx%d", k, c)
				twin(name, func() []float64 { return must(linalg.MatMulT(a, bt)) })
			}
		}
	}
	vecs := gaussian(rng, 2, 80)
	xs, ys, ms := vecs.Row(0), vecs.Row(1), gaussian(rng, 7, 71)
	for _, special := range []float64{0, math.Inf(1), math.Inf(-1), math.NaN()} {
		for n := 0; n <= 70; n++ {
			for off := 0; off < 4; off++ {
				x := make([]float64, off+n)[off:]
				copy(x, xs[off:])
				if special != 0 && n > 0 {
					x[n*7/11] = special
				}
				y := ys[3-off : 3-off+n]
				name := fmt.Sprintf("n=%d off=%d special=%g", n, off, special)
				twin("Dot "+name, func() []float64 { return []float64{linalg.Dot(x, y)} })
				twin("Axpy "+name, func() []float64 {
					out := make([]float64, off+n)[off:]
					copy(out, y)
					linalg.Axpy(-0.7, x, out)
					return out
				})
				m := &linalg.Matrix{Rows: 7, Cols: n, Data: ms.Data[off : off+7*n]}
				twin("MulVec "+name, func() []float64 {
					dst, err := m.MulVec(x, nil)
					if err != nil {
						t.Fatal(err)
					}
					return dst
				})
			}
		}
	}
	// The blocked factor across its panels: n = 600 is 18 full 32-column
	// panels and a 24-column one; n = 5 is part of one panel and n = 33 a
	// panel and a row. The solve on each runs on Dot and Axpy only.
	for _, n := range []int{600, 5, 33} {
		g := gaussian(rng, n, 20)
		spd := must(linalg.MatMulT(g, g))
		for i := 0; i < n; i++ {
			spd[i*n+i] += float64(n)
		}
		var ch *linalg.Cholesky
		twin(fmt.Sprintf("FactorizeCholeskyInPlace %d", n), func() []float64 {
			a := &linalg.Matrix{Rows: n, Cols: n, Data: append([]float64(nil), spd...)}
			var err error
			if ch, err = linalg.FactorizeCholeskyInPlace(a); err != nil {
				t.Fatal(err)
			}
			return a.Data
		})
		rhs := gaussian(rng, 1, n).Data
		twin(fmt.Sprintf("SolveVec %d", n), func() []float64 {
			x, err := ch.SolveVec(rhs, nil)
			if err != nil {
				t.Fatal(err)
			}
			return x
		})
	}
}

// TestAxpyMaxViolatorMatchesTwin pins the fused box-QP step's contract: the
// AVX2 body and its Go twin update grad to Axpy's bits and return the same
// index, the first maximum of the violation above tol. Every length up to 70
// from four unaligned starts leaves every lane and tail residue; λ sits at 0,
// at C, inside and at NaN; gradients of ±0, ±Inf and NaN are planted; and one
// violation is planted three times, the last in or near the tail, so the
// lane reduction must break ties by index. tol = −1 makes every zero a tie,
// tol = +Inf selects nothing. On a host without the assembly the test is
// vacuous.
func TestAxpyMaxViolatorMatchesTwin(t *testing.T) {
	if !linalg.SetFMA(false) {
		t.Skip("no FMA kernels on this host")
	}
	linalg.SetFMA(true)
	defer linalg.SetFMA(true)
	const c, delta = 2.0, -0.3
	rng := rand.New(rand.NewSource(36))
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	lambdas := []float64{0, c, 0.7, math.NaN()}
	for n := 0; n <= 70; n++ {
		for off := 0; off < 4; off++ {
			for trial := 0; trial < 4; trial++ {
				x := make([]float64, off+n)[off:]
				g0 := make([]float64, off+n)[off:]
				lambda := make([]float64, off+n)[off:]
				for j := range x {
					x[j], g0[j] = rng.NormFloat64(), rng.NormFloat64()
					lambda[j] = lambdas[rng.Intn(len(lambdas))]
				}
				if n > 0 {
					// x[j] = 0 keeps a planted gradient through the update.
					for _, s := range specials {
						j := rng.Intn(n)
						x[j], g0[j] = 0, s
					}
					tie := math.Copysign(8, float64(trial%2)-0.5)
					for _, j := range []int{rng.Intn(n), rng.Intn(n), n - 1 - rng.Intn(min(n, 3))} {
						x[j], g0[j], lambda[j] = 0, tie, 0.7
					}
				}
				want := append([]float64(nil), g0...)
				linalg.Axpy(delta, x, want)
				for _, tol := range []float64{1e-6, -1, math.Inf(1)} {
					name := fmt.Sprintf("n=%d off=%d trial=%d tol=%g", n, off, trial, tol)
					step := func(fma bool) (int, []float64) {
						linalg.SetFMA(fma)
						g := make([]float64, off+n)[off:]
						copy(g, g0)
						return linalg.AxpyMaxViolator(delta, x, g, lambda, c, tol), g
					}
					best, grad := step(true)
					twinBest, twinGrad := step(false)
					linalg.SetFMA(true)
					if best != twinBest {
						t.Fatalf("AxpyMaxViolator %s: index %d with the assembly, %d with its Go twin", name, best, twinBest)
					}
					sameBits(t, "AxpyMaxViolator "+name, grad, twinGrad)
					sameBits(t, "AxpyMaxViolator against Axpy "+name, grad, want)
				}
			}
		}
	}
}

// TestLinearSweepMatchesTwin pins the fused HL sweep's contract: the AVX2
// body and its Go twin leave the same λ, v, s, compacted active order,
// Viol/PGMax/PGMin, Iter and moved, bit for bit. Each k in the list leaves a
// different residue of the dot's 16- and 4-wide blocks and the axpy's 4-wide
// one, from four unaligned starts. λ sits at 0, at C, inside and (once in a
// trial) at NaN; ±0, ±Inf and NaN are planted in p and in the rows; some
// rows have QD ≤ τ; the shrink thresholds are infinite or finite; tol is 0,
// 1e-6 or +Inf; and Iter starts below its cap, or at it, or a few updates
// short of it so the cap lands mid-sweep. Some sweeps get an empty active.
// On a host without the assembly the test is vacuous.
func TestLinearSweepMatchesTwin(t *testing.T) {
	if !linalg.SetFMA(false) {
		t.Skip("no FMA kernels on this host")
	}
	linalg.SetFMA(true)
	defer linalg.SetFMA(true)
	const c, tau = 2.0, 1e-12
	rng := rand.New(rand.NewSource(39))
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	inf := math.Inf(1)
	for _, k := range []int{1, 3, 4, 15, 16, 17, 28, 30, 64, 70} {
		for off := 0; off < 4; off++ {
			for trial := 0; trial < 24; trial++ {
				n := 1 + rng.Intn(40)
				in := linalg.SweepState{
					X: make([]float64, off+n*k)[off:], Y: make([]float64, n), P: make([]float64, n),
					QD: make([]float64, n), Lambda: make([]float64, n), V: make([]float64, k), K: k,
					Eta: 0.01 + rng.Float64(), Sigma: 0.01 * float64(trial%2), C: c, Tau: tau,
					Tol: []float64{0, 1e-6, inf}[trial%3], MaxIter: 1 << 30,
					ShrinkAbove: inf, ShrinkBelow: -inf, S: rng.NormFloat64(),
				}
				if trial/3%2 == 1 {
					in.ShrinkAbove, in.ShrinkBelow = rng.Float64(), -rng.Float64()
				}
				switch trial / 6 % 4 {
				case 1:
					in.Iter, in.MaxIter = 3, 3
				case 2:
					in.Iter, in.MaxIter = 3, 3+rng.Intn(4)
				}
				for j := range in.X {
					in.X[j] = rng.NormFloat64()
				}
				for j := range in.V {
					in.V[j] = 0.1 * rng.NormFloat64()
				}
				for i := 0; i < n; i++ {
					in.Y[i] = float64(2*rng.Intn(2) - 1)
					in.P[i] = 2*rng.NormFloat64() - 1
					in.Lambda[i] = []float64{0, c, c * rng.Float64()}[rng.Intn(3)]
				}
				// A zero row has QD = σ, 0 when σ = 0; another sits at τ.
				zero := rng.Intn(n)
				linalg.Zero(in.X[zero*k:][:k])
				for i := 0; i < n; i++ {
					row := in.X[i*k : i*k+k]
					in.QD[i] = in.Eta*linalg.Dot(row, row) + in.Sigma
				}
				in.QD[rng.Intn(n)] = tau
				switch trial % 4 {
				case 1:
					in.Lambda[rng.Intn(n)] = math.NaN()
				case 2:
					// On the zero row at σ = 0, a ±0 here makes g ±0.
					in.P[[]int{zero, rng.Intn(n)}[trial/4%2]] = specials[trial/4%len(specials)]
				case 3:
					in.X[rng.Intn(n*k)] = specials[(trial/4+off)%len(specials)]
				}
				active := rng.Perm(n)[:n-rng.Intn(min(n, 3))]
				if trial == 23 {
					active = active[:0]
				}
				name := fmt.Sprintf("k=%d off=%d trial=%d n=%d", k, off, trial, n)
				sweep := func(fma bool) (linalg.SweepState, []int, int, bool) {
					linalg.SetFMA(fma)
					st := in
					st.Lambda = append(make([]float64, off, off+n), in.Lambda...)[off:]
					st.V = append(make([]float64, off, off+k), in.V...)[off:]
					act := append(make([]int, off, off+len(active)), active...)[off:]
					kept, moved := linalg.LinearSweep(&st, act)
					return st, act, kept, moved
				}
				got, gotActive, kept, moved := sweep(true)
				want, wantActive, twinKept, twinMoved := sweep(false)
				linalg.SetFMA(true)
				if kept != twinKept || moved != twinMoved || got.Iter != want.Iter {
					t.Fatalf("LinearSweep %s: kept %d, moved %v, Iter %d with the assembly; %d, %v, %d with its Go twin",
						name, kept, moved, got.Iter, twinKept, twinMoved, want.Iter)
				}
				if got.Iter > max(in.Iter, in.MaxIter) || moved != (got.Iter != in.Iter) {
					t.Fatalf("LinearSweep %s: Iter %d → %d past MaxIter %d, or moved = %v", name, in.Iter, got.Iter, in.MaxIter, moved)
				}
				for j := range gotActive {
					if gotActive[j] != wantActive[j] {
						t.Fatalf("LinearSweep %s: active %v with the assembly, %v with its Go twin", name, gotActive, wantActive)
					}
				}
				sameBits(t, "LinearSweep λ "+name, got.Lambda, want.Lambda)
				sameBits(t, "LinearSweep v "+name, got.V, want.V)
				sameBits(t, "LinearSweep s, Viol, PGMax, PGMin "+name,
					[]float64{got.S, got.Viol, got.PGMax, got.PGMin}, []float64{want.S, want.Viol, want.PGMax, want.PGMin})
			}
		}
	}
	// One zero row at σ = 0 with p = ±0 has g = ±0: a face keeps a −0
	// gradient as pg and replaces a +0 by 0, which only PGMax and PGMin show.
	for _, lambda := range []float64{0, c} {
		for _, p := range []float64{0, math.Copysign(0, -1)} {
			for _, y := range []float64{1, -1} {
				sweep := func(fma bool) linalg.SweepState {
					linalg.SetFMA(fma)
					st := linalg.SweepState{
						X: make([]float64, 3), Y: []float64{y}, P: []float64{p}, QD: []float64{0},
						Lambda: []float64{lambda}, V: []float64{1, 2, 3}, K: 3, Eta: 1, C: c, Tau: tau,
						MaxIter: 1, ShrinkAbove: inf, ShrinkBelow: -inf, S: -1,
					}
					linalg.LinearSweep(&st, []int{0})
					return st
				}
				got, want := sweep(true), sweep(false)
				linalg.SetFMA(true)
				sameBits(t, fmt.Sprintf("LinearSweep g = ±0 at λ = %g, p = %g, y = %g", lambda, p, y),
					[]float64{got.Lambda[0], got.S, got.Viol, got.PGMax, got.PGMin}, []float64{want.Lambda[0], want.S, want.Viol, want.PGMax, want.PGMin})
			}
		}
	}
}

package qp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/telemetry"
)

// dense forms the Hessian Y(η·XXᵀ + σ·11ᵀ)Y that SolveLinearBox never does.
func dense(t *testing.T, lp LinearProblem) Problem {
	t.Helper()
	q, err := linalg.MatMulT(lp.X, lp.X)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < q.Rows; i++ {
		for j := 0; j < q.Cols; j++ {
			q.Set(i, j, lp.Y[i]*lp.Y[j]*(lp.Eta*q.At(i, j)+lp.Sigma))
		}
	}
	return Problem{Q: q, P: lp.P, C: lp.C}
}

// factors returns Xᵀ(y∘λ) and yᵀλ, the two quantities the optimum fixes even
// where λ itself is not unique (duplicate rows).
func factors(lp LinearProblem, lambda []float64) ([]float64, float64) {
	v := make([]float64, lp.X.Cols)
	s := 0.0
	for i, l := range lambda {
		linalg.Axpy(lp.Y[i]*l, lp.X.Row(i), v)
		s += lp.Y[i] * l
	}
	return v, s
}

// matchesSolveBox holds SolveLinearBox to SolveBox on the explicitly formed
// Hessian: same objective, same (Xᵀ(y∘λ), yᵀλ), and a reported KKT gap that
// the dense gradient at the returned point confirms.
func matchesSolveBox(t *testing.T, lp LinearProblem, opts ...Option) *Result {
	t.Helper()
	const tol = 1e-9
	opts = append(opts, WithTolerance(tol))
	got, err := SolveLinearBox(lp, opts...)
	if err != nil {
		t.Fatal(err)
	}
	dp := dense(t, lp)
	want, err := SolveBox(dp, WithTolerance(tol))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Converged || !want.Converged {
		t.Fatalf("converged: linear %v (gap %g), box %v (gap %g)", got.Converged, got.KKTViolation, want.Converged, want.KKTViolation)
	}
	reportedGapIsConsistent(t, dp, got, tol)
	for i, l := range got.Lambda {
		if l < 0 || l > lp.C {
			t.Errorf("λ[%d] = %g outside [0, %g]", i, l, lp.C)
		}
	}
	if fg, fw := dp.objective(got.Lambda), dp.objective(want.Lambda); math.Abs(fg-fw) > 1e-9*(1+math.Abs(fw)) {
		t.Errorf("objective %.12g, SolveBox reaches %.12g", fg, fw)
	}
	vg, sg := factors(lp, got.Lambda)
	vw, sw := factors(lp, want.Lambda)
	if lp.Eta > 0 {
		for j := range vg {
			if math.Abs(vg[j]-vw[j]) > 1e-5 {
				t.Errorf("Xᵀ(y∘λ)[%d] = %g, SolveBox reaches %g", j, vg[j], vw[j])
			}
		}
	}
	if lp.Sigma > 0 && math.Abs(sg-sw) > 1e-5 {
		t.Errorf("yᵀλ = %g, SolveBox reaches %g", sg, sw)
	}
	return got
}

func linearProblem(t *testing.T, rows [][]float64, y, p []float64, eta, sigma, c float64) LinearProblem {
	t.Helper()
	data := make([]float64, 0, len(rows)*len(rows[0]))
	for _, r := range rows {
		data = append(data, r...)
	}
	x, err := linalg.NewMatrixFrom(len(rows), len(rows[0]), data)
	if err != nil {
		t.Fatal(err)
	}
	return LinearProblem{X: x, Y: y, Eta: eta, Sigma: sigma, P: p, C: c}
}

func TestSolveLinearBoxMatchesSolveBox(t *testing.T) {
	for _, tc := range []struct {
		name            string
		rows            [][]float64
		y, p            []float64
		eta, sigma, c   float64
		wantAll, wantAt float64 // with wantAll set, every λ_i must equal wantAt
	}{
		{name: "n=1 interior", rows: [][]float64{{2, 1}}, y: []float64{-1}, p: []float64{-1}, eta: 0.5, sigma: 0.1, c: 10},
		{name: "n=1 clipped", rows: [][]float64{{2, 1}}, y: []float64{1}, p: []float64{-100}, eta: 0.5, sigma: 0.1, c: 3, wantAll: 1, wantAt: 3},
		{name: "k=1", rows: [][]float64{{1}, {-2}, {0.5}, {3}}, y: []float64{1, -1, -1, 1}, p: []float64{-1, -1, -1, -1}, eta: 1, sigma: 0.01, c: 5},
		{name: "duplicate rows", rows: [][]float64{{1, 2}, {1, 2}, {-1, 0.5}, {1, 2}}, y: []float64{1, 1, -1, -1}, p: []float64{-1, -1, -1, -1}, eta: 0.3, sigma: 0.2, c: 2},
		{name: "zero row, zero curvature", rows: [][]float64{{0, 0}, {1, -1}, {0, 0}}, y: []float64{1, -1, -1}, p: []float64{-1, -1, 2}, eta: 1, sigma: 0, c: 4},
		{name: "all at upper bound", rows: [][]float64{{1, 0}, {0, 1}, {1, 1}}, y: []float64{1, -1, 1}, p: []float64{-50, -60, -70}, eta: 0.1, sigma: 0.1, c: 1, wantAll: 1, wantAt: 1},
		{name: "all at lower bound", rows: [][]float64{{1, 0}, {0, 1}, {1, 1}}, y: []float64{1, -1, 1}, p: []float64{1, 2, 3}, eta: 0.1, sigma: 0.1, c: 1, wantAll: 1, wantAt: 0},
		{name: "no bias term", rows: [][]float64{{1, 0.5}, {-0.5, 1}, {0.2, -1}}, y: []float64{1, -1, 1}, p: []float64{-1, -1, -1}, eta: 2, sigma: 0, c: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lp := linearProblem(t, tc.rows, tc.y, tc.p, tc.eta, tc.sigma, tc.c)
			res := matchesSolveBox(t, lp)
			if tc.wantAll != 0 {
				for i, l := range res.Lambda {
					if l != tc.wantAt {
						t.Errorf("λ[%d] = %g, want %g", i, l, tc.wantAt)
					}
				}
			}
			// From its own optimum the solver has nothing to move.
			again := matchesSolveBox(t, lp, WithWarmStart(res.Lambda))
			if again.Iterations != 0 {
				t.Errorf("warm start from the optimum took %d steps, want 0", again.Iterations)
			}
		})
	}
}

// TestSolveLinearBoxZeroCurvatureJumpsToFace pins the tau branch by value: a
// zero row with σ = 0 has Q_ii = 0, so its coordinate is linear in λ_i and
// the step is a jump to the face its gradient points at.
func TestSolveLinearBoxZeroCurvatureJumpsToFace(t *testing.T) {
	lp := linearProblem(t, [][]float64{{0, 0}, {0, 0}}, []float64{1, -1}, []float64{-1, 2}, 1, 0, 4)
	res, err := SolveLinearBox(lp, WithWarmStart([]float64{1, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Lambda[0] != 4 || res.Lambda[1] != 0 || !res.Converged || res.Iterations != 2 {
		t.Errorf("λ = %v after %d steps (converged %v), want [4 0] after 2", res.Lambda, res.Iterations, res.Converged)
	}
}

func TestSolveLinearBoxRandomMatchesSolveBox(t *testing.T) {
	rng := rand.New(rand.NewSource(20260119))
	for trial := 0; trial < 200; trial++ {
		n, k := 1+rng.Intn(40), 1+rng.Intn(6)
		x := linalg.NewMatrix(n, k)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		for i := 1; i < n; i++ {
			switch rng.Intn(8) {
			case 0: // duplicate of an earlier row
				copy(x.Row(i), x.Row(rng.Intn(i)))
			case 1:
				linalg.Zero(x.Row(i))
			}
		}
		p := make([]float64, n)
		for i := range p {
			p[i] = 2*rng.NormFloat64() - 1
		}
		lp := LinearProblem{
			X: x, Y: randomLabels(rng, n), P: p,
			Eta: 0.01 + rng.Float64(), Sigma: rng.Float64() * float64(rng.Intn(2)),
			C: math.Pow(10, 2*rng.Float64()-1),
		}
		cold := matchesSolveBox(t, lp)
		// The next round's problem: the linear term moves a little, the
		// solve starts from this round's λ.
		for i := range p {
			p[i] += 0.05 * rng.NormFloat64()
		}
		warm := matchesSolveBox(t, lp, WithWarmStart(cold.Lambda))
		if t.Failed() {
			t.Fatalf("trial %d: n=%d k=%d η=%g σ=%g C=%g (cold %d steps, warm %d)", trial, n, k, lp.Eta, lp.Sigma, lp.C, cold.Iterations, warm.Iterations)
		}
	}
}

func TestSolveLinearBoxValidation(t *testing.T) {
	ok := func() LinearProblem {
		return linearProblem(t, [][]float64{{1, 0}, {0, 1}}, []float64{1, -1}, []float64{-1, -1}, 1, 0.5, 1)
	}
	for name, mutate := range map[string]func(*LinearProblem){
		"nil X":         func(p *LinearProblem) { p.X = nil },
		"short Y":       func(p *LinearProblem) { p.Y = p.Y[:1] },
		"long P":        func(p *LinearProblem) { p.P = append(p.P, 0) },
		"C zero":        func(p *LinearProblem) { p.C = 0 },
		"C negative":    func(p *LinearProblem) { p.C = -1 },
		"C NaN":         func(p *LinearProblem) { p.C = math.NaN() },
		"η negative":    func(p *LinearProblem) { p.Eta = -1 },
		"σ NaN":         func(p *LinearProblem) { p.Sigma = math.NaN() },
		"label not ±1":  func(p *LinearProblem) { p.Y[1] = 0.5 },
		"label is zero": func(p *LinearProblem) { p.Y[0] = 0 },
	} {
		p := ok()
		mutate(&p)
		if _, err := SolveLinearBox(p); !errors.Is(err, ErrBadProblem) {
			t.Errorf("%s: err = %v, want ErrBadProblem", name, err)
		}
	}
	if _, err := SolveLinearBox(ok(), WithWarmStart([]float64{0, 0, 0})); !errors.Is(err, ErrBadProblem) {
		t.Errorf("warm start of the wrong length: err = %v, want ErrBadProblem", err)
	}
	if _, err := SolveLinearBox(ok()); err != nil {
		t.Errorf("well-formed problem: %v", err)
	}
}

// TestSolveLinearBoxUpdateCap: a solve stopped at its cap still reports the
// gap at the point it returns, says it did not converge, and counts itself
// in ppml_qp_unconverged_total; a converged one does not.
func TestSolveLinearBoxUpdateCap(t *testing.T) {
	lp := hlProblem(make([]float64, 28), 0)
	reg := telemetry.NewRegistry()
	res, err := SolveLinearBox(lp, WithMaxIter(50), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 50 || res.Converged {
		t.Errorf("capped at 50: %d steps, converged %v", res.Iterations, res.Converged)
	}
	reportedGapIsConsistent(t, dense(t, lp), res, 1e-6)
	unconverged := reg.Counter(metricUnconverged, telemetry.L("solver", "linear"))
	if unconverged.Value() != 1 {
		t.Errorf("unconverged counter = %d after a capped solve, want 1", unconverged.Value())
	}
	res, err = SolveLinearBox(lp, WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations <= denseMaxIter(lp.X.Rows)/10 {
		t.Errorf("default cap: converged %v after %d steps", res.Converged, res.Iterations)
	}
	reportedGapIsConsistent(t, dense(t, lp), res, 1e-6)
	if unconverged.Value() != 1 {
		t.Errorf("unconverged counter = %d after a converged solve, want 1", unconverged.Value())
	}
	if n := reg.Counter(metricSolves, telemetry.L("solver", "linear")).Value(); n != 2 {
		t.Errorf("solves counter = %d, want 2", n)
	}
}

// TestSolveLinearBoxScratchZeroAlloc: the consensus round loop — same
// Scratch, warm start from the previous round — must not allocate.
func TestSolveLinearBoxScratchZeroAlloc(t *testing.T) {
	lp := hlProblem(make([]float64, 28), 0)
	var scr Scratch
	warm := make([]float64, lp.X.Rows)
	opts := []Option{WithScratch(&scr), WithWarmStart(warm)}
	solve := func() {
		res, err := SolveLinearBox(lp, opts...)
		if err != nil {
			t.Fatal(err)
		}
		copy(warm, res.Lambda)
		lp.P[0] -= 0.01 // keep every run a real solve
	}
	solve()
	if allocs := testing.AllocsPerRun(10, solve); allocs != 0 {
		t.Errorf("steady-state warm solve allocates %g objects per run, want 0", allocs)
	}
}

// boxGap is the largest projected gradient of the box problem ½λᵀQλ + pᵀλ at
// lambda, from the dense Q.
func boxGap(p Problem, lambda []float64) float64 {
	gap := 0.0
	for i := range lambda {
		g := p.P[i] + linalg.Dot(p.Q.Row(i), lambda)
		switch {
		case lambda[i] <= 0:
			g = math.Min(g, 0)
		case lambda[i] >= p.C:
			g = math.Max(g, 0)
		}
		gap = math.Max(gap, math.Abs(g))
	}
	return gap
}

// matchesSMO holds SolveLinearEqualityBox to SolveEqualityBox on the formed
// Hessian: yᵀλ = 0 and the KKT conditions with the returned multiplier both
// within tolerance of the dense gradient, the same objective, and the same
// Xᵀ(y∘λ).
func matchesSMO(t *testing.T, lp LinearProblem, opts ...Option) *Result {
	t.Helper()
	const tol = 1e-8
	got, err := SolveLinearEqualityBox(lp, append(opts, WithTolerance(tol))...)
	if err != nil {
		t.Fatal(err)
	}
	dp := dense(t, lp)
	want, err := SolveEqualityBox(dp, lp.Y, WithTolerance(tol))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Converged || !want.Converged {
		t.Fatalf("converged: multipliers %v (gap %g), SMO %v (gap %g)", got.Converged, got.KKTViolation, want.Converged, want.KKTViolation)
	}
	_, s := factors(lp, got.Lambda)
	if r := math.Abs(s); r > tol {
		t.Errorf("|yᵀλ| = %g, want ≤ %g", r, tol)
	}
	shifted := dp
	shifted.P = make([]float64, len(lp.P))
	for i := range shifted.P {
		shifted.P[i] = lp.P[i] + got.Multiplier*lp.Y[i]
	}
	if gap := boxGap(shifted, got.Lambda); gap > 10*tol {
		t.Errorf("KKT gap at the returned multiplier %g: %g, want ≤ %g", got.Multiplier, gap, 10*tol)
	}
	if fg, fw := dp.objective(got.Lambda), dp.objective(want.Lambda); math.Abs(fg-fw) > 1e-6*(1+math.Abs(fw)) {
		t.Errorf("objective %.12g, SMO reaches %.12g", fg, fw)
	}
	if lp.Eta > 0 {
		vg, _ := factors(lp, got.Lambda)
		vw, _ := factors(lp, want.Lambda)
		for j := range vg {
			if math.Abs(vg[j]-vw[j]) > 1e-4*(1+math.Abs(vw[j])) {
				t.Errorf("Xᵀ(y∘λ)[%d] = %g, SMO reaches %g", j, vg[j], vw[j])
			}
		}
	}
	return got
}

func TestSolveLinearEqualityBoxMatchesSMO(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 150; trial++ {
		n, k := 2+rng.Intn(40), 1+rng.Intn(6)
		x := linalg.NewMatrix(n, k)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		for i := 1; i < n; i++ {
			switch rng.Intn(8) {
			case 0: // duplicate of an earlier row
				copy(x.Row(i), x.Row(rng.Intn(i)))
			case 1:
				linalg.Zero(x.Row(i))
			}
		}
		p := make([]float64, n)
		for i := range p {
			p[i] = 2*rng.NormFloat64() - 1
		}
		lp := LinearProblem{
			X: x, Y: randomLabels(rng, n), P: p,
			Eta: 0.01 + rng.Float64(), Sigma: rng.Float64() * float64(rng.Intn(2)),
			C: math.Pow(10, 2*rng.Float64()-1),
		}
		cold := matchesSMO(t, lp)
		// The next solve's problem: the linear term moves a little, and the
		// solve starts from this one's λ with the positive class's shrunk,
		// off yᵀλ = 0.
		for i := range p {
			p[i] += 0.05 * rng.NormFloat64()
		}
		start := linalg.CopyVec(cold.Lambda)
		for i, y := range lp.Y {
			if y > 0 {
				start[i] *= 0.9
			}
		}
		warm := matchesSMO(t, lp, WithWarmStart(start))
		if t.Failed() {
			t.Fatalf("trial %d: n=%d k=%d η=%g σ=%g C=%g (cold %d updates, warm %d)", trial, n, k, lp.Eta, lp.Sigma, lp.C, cold.Iterations, warm.Iterations)
		}
	}
}

// TestSolveLinearEqualityBoxValidation: malformed problems are
// ErrBadProblem, and a one-class problem, where 0 is the edge of the range of
// yᵀλ, is solved at its one feasible point λ = 0.
func TestSolveLinearEqualityBoxValidation(t *testing.T) {
	lp := linearProblem(t, [][]float64{{1, 0}, {0, 1}, {1, 1}}, []float64{1, 1, -1}, []float64{-1, -1, -1}, 1, 0, 2)
	bad := lp
	bad.Y = bad.Y[:2]
	if _, err := SolveLinearEqualityBox(bad); !errors.Is(err, ErrBadProblem) {
		t.Errorf("short Y: err = %v, want ErrBadProblem", err)
	}
	if _, err := SolveLinearEqualityBox(lp, WithWarmStart([]float64{0})); !errors.Is(err, ErrBadProblem) {
		t.Errorf("warm start of the wrong length: err = %v, want ErrBadProblem", err)
	}
	one := linearProblem(t, [][]float64{{1, 0}, {0, 1}}, []float64{1, 1}, []float64{-1, -1}, 1, 0, 2)
	res, err := SolveLinearEqualityBox(one, WithTolerance(1e-9))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || linalg.NormInf(res.Lambda) > 1e-9 {
		t.Errorf("one class: λ = %v (converged %v), want 0", res.Lambda, res.Converged)
	}
}

// TestSolveLinearEqualityBoxScratchZeroAlloc: a loop of solves — same
// Scratch, warm start from the previous solve, the linear term moving — must
// not allocate.
func TestSolveLinearEqualityBoxScratchZeroAlloc(t *testing.T) {
	lp := hlProblem(make([]float64, 28), 0)
	lp.Sigma = 0
	var scr Scratch
	warm := make([]float64, lp.X.Rows)
	opts := []Option{WithScratch(&scr), WithWarmStart(warm)}
	solve := func() {
		res, err := SolveLinearEqualityBox(lp, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("gap %g after %d updates", res.KKTViolation, res.Iterations)
		}
		copy(warm, res.Lambda)
		lp.P[0] -= 0.01 // keep every run a real solve
	}
	solve()
	if allocs := testing.AllocsPerRun(10, solve); allocs != 0 {
		t.Errorf("steady-state warm solve allocates %g objects per run, want 0", allocs)
	}
}

package kernel

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/parallel"
)

func randomSamples(t *testing.T, seed int64, n, k int) *linalg.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := linalg.NewMatrix(n, k)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// TestGramParallelMatchesSequential pins the acceptance requirement: the
// parallel row partitioning must produce bit-identical matrices to the
// single-worker (sequential) path, for sizes below and above the parallel
// cutoff and for worker counts exceeding the row count, on every body of
// linalg's kernels this host runs, and every body the same matrix.
func TestGramParallelMatchesSequential(t *testing.T) {
	kernels := []Kernel{Linear{}, RBF{Gamma: 0.3}, Polynomial{A: 1, B: 1, Degree: 3}, Sigmoid{A: 0.5, C: -0.2}}
	defer parallel.SetWorkers(parallel.Workers())
	for _, n := range []int{1, 5, 37, 120, 400} {
		a := randomSamples(t, int64(n), n, 11)
		for _, k := range kernels {
			var first *linalg.Matrix
			for _, b := range hostBodies() {
				restore := b.use()
				parallel.SetWorkers(1)
				seq := GramMatrix(k, a)
				for _, w := range []int{2, 4, n + 13} {
					parallel.SetWorkers(w)
					got := GramMatrix(k, a)
					for i := range seq.Data {
						if got.Data[i] != seq.Data[i] {
							restore()
							t.Fatalf("%s %s n=%d workers=%d: Gram differs at %d: %g vs %g",
								b.name, k.Name(), n, w, i, got.Data[i], seq.Data[i])
						}
					}
				}
				restore()
				if first == nil {
					first = seq
					continue
				}
				for i := range seq.Data {
					if seq.Data[i] != first.Data[i] {
						t.Fatalf("%s %s n=%d: Gram differs from the %s body's at %d: %g vs %g",
							b.name, k.Name(), n, hostBodies()[0].name, i, seq.Data[i], first.Data[i])
					}
				}
			}
		}
	}
}

// TestTiledPathMatchesEval checks every entry point of the one compute path
// against scalar Eval loops, for each of the four kernels, at row counts that
// cross panelRows and leave the tile's edges: a's last panel is 13 rows, two
// 6-row tiles and a 1-row one, and both column counts (55 against b, 109 in
// the Gram) end in a partial 8-column panel. On every body of linalg's
// kernels this host runs, the pooled result must equal the sequential one bit
// for bit, and every body the widest one's; against Eval only the dot rounds
// differently.
func TestTiledPathMatchesEval(t *testing.T) {
	a := randomSamples(t, 7, 2*panelRows+13, 13)
	b := randomSamples(t, 8, panelRows+7, 13)
	coef := sparseCoef(b.Rows)
	evalMatrix := func(k Kernel, x, y *linalg.Matrix) []float64 {
		out := make([]float64, 0, x.Rows*y.Rows)
		for i := 0; i < x.Rows; i++ {
			for j := 0; j < y.Rows; j++ {
				out = append(out, k.Eval(x.Row(i), y.Row(j)))
			}
		}
		return out
	}
	data := func(m *linalg.Matrix, err error) ([]float64, error) {
		if err != nil {
			return nil, err
		}
		return m.Data, nil
	}
	ops := []struct {
		name string
		got  func(k Kernel) ([]float64, error)
		want func(k Kernel) []float64
	}{
		{"MatrixInto a≠b",
			func(k Kernel) ([]float64, error) { return data(MatrixInto(k, a, b, nil)) },
			func(k Kernel) []float64 { return evalMatrix(k, a, b) }},
		{"MatrixInto a==b",
			func(k Kernel) ([]float64, error) { return data(MatrixInto(k, a, a, nil)) },
			func(k Kernel) []float64 { return evalMatrix(k, a, a) }},
		{"GramMatrix",
			func(k Kernel) ([]float64, error) { return GramMatrix(k, a).Data, nil },
			func(k Kernel) []float64 { return evalMatrix(k, a, a) }},
		{"Accumulate zero coefficients",
			func(k Kernel) ([]float64, error) {
				dst := make([]float64, a.Rows)
				return dst, Accumulate(k, a, b, coef, dst)
			},
			func(k Kernel) []float64 {
				dst := make([]float64, a.Rows)
				for i := range dst {
					for j, c := range coef {
						dst[i] += c * k.Eval(b.Row(j), a.Row(i))
					}
				}
				return dst
			}},
	}
	defer parallel.SetThreshold(parallel.SetThreshold(1))
	defer parallel.SetWorkers(parallel.Workers())
	first := make(map[string][]float64)
	for _, b := range hostBodies() {
		restore := b.use()
		for _, k := range fourKernels {
			for _, op := range ops {
				name := b.name + " " + k.Name() + "/" + op.name
				parallel.SetWorkers(1)
				seq, err := op.got(k)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				parallel.SetWorkers(4)
				par, err := op.got(k)
				if err != nil {
					t.Fatalf("%s pooled: %v", name, err)
				}
				ref, seen := first[k.Name()+"/"+op.name]
				if !seen {
					first[k.Name()+"/"+op.name] = seq
				}
				for i, want := range op.want(k) {
					if math.Abs(seq[i]-want) > 1e-9*math.Max(1, math.Abs(want)) {
						t.Fatalf("%s: element %d = %.17g, Eval loop %.17g", name, i, seq[i], want)
					}
					if par[i] != seq[i] {
						t.Fatalf("%s: element %d depends on the worker count: %.17g vs %.17g", name, i, par[i], seq[i])
					}
					if seen && seq[i] != ref[i] {
						t.Fatalf("%s: element %d = %.17g, %.17g on the %s body", name, i, seq[i], ref[i], hostBodies()[0].name)
					}
				}
			}
		}
		restore()
	}
}

// TestRBFFastPathMatchesEval checks the ‖x‖²+‖y‖²−2⟨x,y⟩ expansion against
// the direct Eval within floating-point rearrangement tolerance, including
// duplicate rows where cancellation is worst.
func TestRBFFastPathMatchesEval(t *testing.T) {
	a := randomSamples(t, 9, 60, 6)
	copy(a.Row(10), a.Row(3)) // exact duplicates: distance must clamp to 0
	k := RBF{Gamma: 0.8}
	g := GramMatrix(k, a)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Rows; j++ {
			want := k.Eval(a.Row(i), a.Row(j))
			if d := math.Abs(g.At(i, j) - want); d > 1e-12 {
				t.Fatalf("fast path (%d,%d): %g vs Eval %g (|Δ|=%g)", i, j, g.At(i, j), want, d)
			}
		}
	}
	if v := g.At(10, 3); v != 1 {
		t.Errorf("duplicate rows: K = %g, want exactly 1", v)
	}
	for i := 0; i < a.Rows; i++ {
		if g.At(i, i) != 1 {
			t.Errorf("diagonal (%d): K = %g, want exactly 1", i, g.At(i, i))
		}
	}
}

// TestRBFRowFormSymmetricAndExact pins what the vector exp must not cost: a
// kernel value depends on the pair of rows and nothing else. K(a, b) is
// K(b, a) transposed bit for bit although every value sits in a different
// lane and at a different row offset in the two; the symmetric path, which
// transforms row i from column i on, equals the cross path off the diagonal;
// and its diagonal is exactly 1. Every dot is one FMA chain wherever it sits
// in a tile, so the row counts leave short tiles and partial panels on both
// sides.
func TestRBFRowFormSymmetricAndExact(t *testing.T) {
	k := RBF{Gamma: 0.07}
	a := randomSamples(t, 21, 2*panelRows+5, 9)
	b := randomSamples(t, 22, panelRows+3, 9)
	ab, err := Matrix(k, a, b)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := Matrix(k, b, a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			if math.Float64bits(ab.At(i, j)) != math.Float64bits(ba.At(j, i)) {
				t.Fatalf("K(a,b)[%d][%d] = %.17g, K(b,a)[%d][%d] = %.17g", i, j, ab.At(i, j), j, i, ba.At(j, i))
			}
		}
	}
	g := GramMatrix(k, a)
	aa, err := Matrix(k, a, a.Clone()) // a second pointer: the cross path
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Rows; i++ {
		if g.At(i, i) != 1 {
			t.Fatalf("diagonal (%d): K = %.17g, want exactly 1", i, g.At(i, i))
		}
		for j := 0; j < a.Rows; j++ {
			if i != j && math.Float64bits(g.At(i, j)) != math.Float64bits(aa.At(i, j)) {
				t.Fatalf("Gram (%d,%d) = %.17g, cross path %.17g", i, j, g.At(i, j), aa.At(i, j))
			}
		}
	}
}

// TestRBFNaNFeaturePoisonsItsRow pins the clamp's NaN semantics: a NaN
// feature makes every kernel value of its row NaN — through the cross path,
// the symmetric path (diagonal included) and Accumulate — and never the
// perfect match exp(0) = 1 that a max-style clamp would turn it into. Other
// rows are untouched.
func TestRBFNaNFeaturePoisonsItsRow(t *testing.T) {
	k := RBF{Gamma: 0.07}
	a := randomSamples(t, 23, panelRows+9, 7)
	b := randomSamples(t, 24, 13, 7)
	const bad = 5
	a.Row(bad)[3] = math.NaN()
	ab, err := Matrix(k, a, b)
	if err != nil {
		t.Fatal(err)
	}
	g := GramMatrix(k, a)
	dst := make([]float64, a.Rows)
	coef := make([]float64, b.Rows)
	for j := range coef {
		coef[j] = 1
	}
	if err := Accumulate(k, a, b, coef, dst); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			if got := math.IsNaN(ab.At(i, j)); got != (i == bad) {
				t.Fatalf("K(a,b)[%d][%d] = %g", i, j, ab.At(i, j))
			}
		}
		for j := 0; j < a.Rows; j++ {
			if got := math.IsNaN(g.At(i, j)); got != (i == bad || j == bad) {
				t.Fatalf("Gram[%d][%d] = %g", i, j, g.At(i, j))
			}
		}
		if got := math.IsNaN(dst[i]); got != (i == bad) {
			t.Fatalf("Accumulate row %d = %g", i, dst[i])
		}
	}
}

package consensus

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/telemetry"
)

// TestHLLocalSolvesConverge trains the two HL benchmark shapes (bench's
// hl_rows and hl_chunks_dfs: Higgs rows split 50/50 and standardized, M = 4,
// C = 50, ρ = 100) and holds every local solve to qpTol: the mappers do not
// read Result.Converged, so the solver's own unconverged counter is what
// says a capped solve happened.
func TestHLLocalSolvesConverge(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		rows, chunkRows, rounds int
		accuracy                float64
	}{
		{"hl_rows", 1600, 0, 50, 0.6875},
		{"hl_chunks_dfs", 8000, 100, 350, 0.69075},
	} {
		t.Run(tc.name, func(t *testing.T) {
			train, test := splitAndScale(t, dataset.SyntheticHiggs(tc.rows, 1))
			reg := telemetry.NewRegistry()
			_, h, err := TrainHorizontalLinear(context.Background(), horizontalParts(t, train, 4, 1), Config{
				C: 50, Rho: 100, MaxIterations: tc.rounds, Seed: 1,
				ChunkRows: tc.chunkRows, EvalSet: test, Telemetry: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			lbl := telemetry.L("solver", "linear")
			if got, want := reg.Counter("ppml_qp_solves_total", lbl).Value(), int64(4*tc.rounds); got != want {
				t.Errorf("%d local solves recorded, want %d", got, want)
			}
			if n := reg.Counter("ppml_qp_unconverged_total", lbl).Value(); n != 0 {
				t.Errorf("%d local solves returned short of qpTol", n)
			}
			if acc := h.Accuracy[len(h.Accuracy)-1]; acc != tc.accuracy {
				t.Errorf("final accuracy %v, want %v", acc, tc.accuracy)
			}
		})
	}
}

// TestHLJointRoundHoldsNoHessian is the memory half of the Gram-free solve,
// at a size where the process RSS would show it and the benchmark's 200-row
// partitions do not: a round over N_m = 4,000 rows allocates O(N_m + k),
// where the dual Hessian alone was 128 MB, under the joint update and under
// PaperSplit's equality-constrained one alike.
func TestHLJointRoundHoldsNoHessian(t *testing.T) {
	const n, k = 4000, 10
	rng := rand.New(rand.NewSource(7))
	x := linalg.NewMatrix(n, k)
	y := make([]float64, n)
	for i := range y {
		y[i] = float64(2*rng.Intn(2) - 1)
		for j := 0; j < k; j++ {
			x.Data[i*k+j] = rng.NormFloat64() + 0.5*y[i]
		}
	}
	d, err := dataset.New("wide", x, y)
	if err != nil {
		t.Fatal(err)
	}
	for _, split := range []bool{false, true} {
		cfg, err := Config{C: 1, Rho: 10, PaperSplit: split}.normalized()
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mp, err := newHLMapper(dataset.NewMemorySource(d), 0, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mp.Contribution(0, make([]float64, k+1)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		mp.close()
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 2<<20 {
			t.Errorf("PaperSplit %v: mapper construction and one round allocated %d bytes, want < 2 MiB", split, grew)
		}
	}
}

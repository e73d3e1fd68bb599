package consensus

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/kernel"
	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/parallel"
	"github.com/ppml-go/ppml/internal/svm"
	"github.com/ppml-go/ppml/internal/telemetry"
)

func randMatrix(rng *rand.Rand, r, c int) *linalg.Matrix {
	m := linalg.NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() / 4
	}
	return v
}

// TestDecisionsMatchDecision pins every kernel model's batch scoring method
// against its scalar Decision, the reference model hashes are taken from:
// agreement to 1e-9 relative on the four kernels, and a result that does not
// depend on the worker count. The HK model has one learner with all-zero CoefX and one
// with a mix of zero and nonzero; the VK model's column blocks are uneven.
func TestDecisionsMatchDecision(t *testing.T) {
	const features = 11
	rng := rand.New(rand.NewSource(16))
	x := randMatrix(rng, 75, features) // a full 48-row panel and a partial one ending in a short tile

	mixed := randVec(rng, 40)
	for i := range mixed {
		if i%3 == 0 {
			mixed[i] = 0
		}
	}
	hk := &KernelHorizontalModel{
		Landmarks: randMatrix(rng, 9, features),
		SupportX:  []*linalg.Matrix{randMatrix(rng, 40, features), randMatrix(rng, 23, features), randMatrix(rng, 31, features)},
		CoefX:     [][]float64{mixed, make([]float64, 23), randVec(rng, 31)},
		CoefG:     [][]float64{randVec(rng, 9), randVec(rng, 9), randVec(rng, 9)},
		B:         []float64{0.3, -0.1, 0.2},
	}
	vkCols := [][]int{{0, 7}, {1, 2, 3, 4, 5, 6}, {8, 9, 10}}
	vk := &KernelVerticalModel{Cols: vkCols, B: -0.4}
	for _, cols := range vkCols {
		vk.SupportX = append(vk.SupportX, randMatrix(rng, 50, len(cols)))
		alpha := randVec(rng, 50)
		alpha[0], alpha[17] = 0, 0
		vk.Alpha = append(vk.Alpha, alpha)
	}
	central := &svm.Model{SupportX: randMatrix(rng, 37, features), Coef: randVec(rng, 37), B: 0.1}

	type scorer interface {
		Decision(x []float64) float64
		Decisions(x *linalg.Matrix, dst []float64) ([]float64, error)
	}
	kernels := []kernel.Kernel{
		kernel.Linear{}, kernel.RBF{Gamma: 0.05}, kernel.Polynomial{A: 0.1, B: 1, Degree: 3},
		kernel.Sigmoid{A: 0.05, C: -0.2},
	}
	for _, k := range kernels {
		hk.Kernel, vk.Kernel, central.Kernel = k, k, k
		for name, model := range map[string]scorer{"hk": hk, "vk": vk, "svm": central} {
			prevW, prevT := parallel.SetWorkers(1), parallel.SetThreshold(1)
			seq, err := model.Decisions(x, nil)
			parallel.SetWorkers(4)
			par, perr := model.Decisions(x, make([]float64, x.Rows))
			parallel.SetWorkers(prevW)
			parallel.SetThreshold(prevT)
			if err != nil || perr != nil {
				t.Fatalf("%s/%s: Decisions: %v, %v", name, k.Name(), err, perr)
			}
			for i := range seq {
				want := model.Decision(x.Row(i))
				if math.Abs(seq[i]-want) > 1e-9*math.Max(1, math.Abs(want)) {
					t.Fatalf("%s/%s: row %d: batch %.17g, scalar %.17g", name, k.Name(), i, seq[i], want)
				}
				if par[i] != seq[i] {
					t.Fatalf("%s/%s: row %d depends on the worker count: %.17g vs %.17g", name, k.Name(), i, par[i], seq[i])
				}
			}
			if _, err := model.Decisions(x, make([]float64, 1)); !errors.Is(err, linalg.ErrShape) {
				t.Errorf("%s/%s: short dst: err = %v, want ErrShape", name, k.Name(), err)
			}
		}
	}
	if _, err := vk.Decisions(randMatrix(rng, 3, 4), nil); !errors.Is(err, linalg.ErrShape) {
		t.Errorf("vk on samples narrower than its columns: err = %v, want ErrShape", err)
	}
}

// TestProbeJournalPair pins the flight recorder's view of the per-round
// accuracy probe on both reducers (HK rides the mean-consensus reducer, VK
// the vertical one): every round's consensus.round is followed by one
// probe.start / probe.end pair of that round, and the end event carries
// exactly the accuracy History publishes — a scalar, nothing per learner.
func TestProbeJournalPair(t *testing.T) {
	train, test := splitAndScale(t, dataset.TwoGaussians("g", 120, 6, 3, 5))
	cfg := Config{C: 10, Rho: 50, MaxIterations: 4, Kernel: kernel.RBF{Gamma: 0.2}, Landmarks: 8, EvalSet: test}
	runs := map[string]func(Config) (*History, error){
		"hk": func(cfg Config) (*History, error) {
			_, h, err := TrainHorizontalKernel(context.Background(), horizontalParts(t, train, 3, 1), cfg)
			return h, err
		},
		"vk": func(cfg Config) (*History, error) {
			parts, cols := verticalParts(t, train, 3, 1)
			_, h, err := TrainVerticalKernel(context.Background(), parts, cols, cfg)
			return h, err
		},
	}
	for name, run := range runs {
		reg := telemetry.NewRegistry(telemetry.WithJournal(1024))
		cfg.Telemetry = reg
		h, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got []string
		var ends []float64
		for _, e := range reg.Journal().Snapshot() {
			switch e.Event {
			case "consensus.round", "probe.start", "probe.end":
				got = append(got, fmt.Sprintf("%s@%d", e.Event, e.Round))
			}
			if e.Event == "probe.end" {
				ends = append(ends, e.Value)
			}
		}
		var want []string
		for r := range h.Accuracy {
			want = append(want, fmt.Sprintf("consensus.round@%d", r), fmt.Sprintf("probe.start@%d", r), fmt.Sprintf("probe.end@%d", r))
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: reducer events %v, want %v", name, got, want)
		}
		if !slices.Equal(ends, h.Accuracy) {
			t.Errorf("%s: probe.end values %v, History.Accuracy %v", name, ends, h.Accuracy)
		}
	}
}

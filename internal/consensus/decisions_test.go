package consensus

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
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

// scoringModels returns an HK, a VK and two svm models on the kernel k, and
// 75 samples of 11 features: a full 48-row panel and a partial one ending in
// a short tile. The HK model has one learner with all-zero CoefX and one with
// a mix of zero and nonzero; the VK model's column blocks are uneven and its
// coefficients hold zeros; one svm model scores on its support rows and the
// other on an explicit W.
func scoringModels(k kernel.Kernel) (x *linalg.Matrix, models map[string]scorer) {
	const features = 11
	rng := rand.New(rand.NewSource(16))
	x = randMatrix(rng, 75, features)

	mixed := randVec(rng, 40)
	for i := range mixed {
		if i%3 == 0 {
			mixed[i] = 0
		}
	}
	hk := &KernelHorizontalModel{
		Kernel:    k,
		Landmarks: randMatrix(rng, 9, features),
		SupportX:  []*linalg.Matrix{randMatrix(rng, 40, features), randMatrix(rng, 23, features), randMatrix(rng, 31, features)},
		CoefX:     [][]float64{mixed, make([]float64, 23), randVec(rng, 31)},
		CoefG:     [][]float64{randVec(rng, 9), randVec(rng, 9), randVec(rng, 9)},
		B:         []float64{0.3, -0.1, 0.2},
	}
	vkCols := [][]int{{0, 7}, {1, 2, 3, 4, 5, 6}, {8, 9, 10}}
	vk := &KernelVerticalModel{Kernel: k, Cols: vkCols, B: -0.4}
	for _, cols := range vkCols {
		vk.SupportX = append(vk.SupportX, randMatrix(rng, 50, len(cols)))
		alpha := randVec(rng, 50)
		alpha[0], alpha[17] = 0, 0
		vk.Alpha = append(vk.Alpha, alpha)
	}
	central := &svm.Model{Kernel: k, SupportX: randMatrix(rng, 37, features), Coef: randVec(rng, 37), B: 0.1}
	primal := &svm.Model{Kernel: kernel.Linear{}, W: randVec(rng, features), B: -0.2}
	return x, map[string]scorer{"hk": hk, "vk": vk, "svm": central, "svm primal": primal}
}

type scorer interface {
	Decision(x []float64) float64
	Decisions(x *linalg.Matrix, dst []float64) ([]float64, error)
}

// TestDecisionsMatchDecision pins every kernel model's Decision to its batch
// Decisions bit for bit, on the four kernels and at one worker and four:
// Decision is Decisions on a one-row view, and a row's arithmetic depends
// neither on the rows batched with it nor on the worker count. So the label
// Predict gives a row is the one the accuracy probe counts.
func TestDecisionsMatchDecision(t *testing.T) {
	kernels := []kernel.Kernel{
		kernel.Linear{}, kernel.RBF{Gamma: 0.05}, kernel.Polynomial{A: 0.1, B: 1, Degree: 3},
		kernel.Sigmoid{A: 0.05, C: -0.2},
	}
	for _, k := range kernels {
		x, models := scoringModels(k)
		for name, model := range models {
			var first []float64
			for _, workers := range []int{1, 4} {
				prevW, prevT := parallel.SetWorkers(workers), parallel.SetThreshold(1)
				batch, err := model.Decisions(x, nil)
				rows := make([]float64, x.Rows)
				for i := range rows {
					rows[i] = model.Decision(x.Row(i))
				}
				parallel.SetWorkers(prevW)
				parallel.SetThreshold(prevT)
				if err != nil {
					t.Fatalf("%s/%s: Decisions: %v", name, k.Name(), err)
				}
				if first == nil {
					first = batch
				}
				for i := range batch {
					if math.Float64bits(rows[i]) != math.Float64bits(batch[i]) {
						t.Fatalf("%s/%s, %d workers: row %d: Decision %.17g, Decisions %.17g", name, k.Name(), workers, i, rows[i], batch[i])
					}
					if math.Float64bits(batch[i]) != math.Float64bits(first[i]) {
						t.Fatalf("%s/%s: row %d depends on the worker count: %.17g vs %.17g", name, k.Name(), i, batch[i], first[i])
					}
				}
			}
			if _, err := model.Decisions(x, make([]float64, 1)); !errors.Is(err, linalg.ErrShape) {
				t.Errorf("%s/%s: short dst: err = %v, want ErrShape", name, k.Name(), err)
			}
		}
	}
}

// TestDecisionRejectsWrongWidth: a sample one feature short or one feature
// wide is not scored. Decisions returns linalg.ErrShape for it, and Decision,
// which has no error result, panics with that error. A sample's features are
// matched by position, so a wide one scored on its leading features would be
// a silent wrong answer.
func TestDecisionRejectsWrongWidth(t *testing.T) {
	x, models := scoringModels(kernel.RBF{Gamma: 0.05})
	row := x.Row(0)
	samples := map[string][]float64{"short": row[:len(row)-1], "wide": append(slices.Clone(row), 0.5)}
	for name, model := range models {
		for width, sample := range samples {
			if _, err := model.Decisions(&linalg.Matrix{Rows: 1, Cols: len(sample), Data: sample}, nil); !errors.Is(err, linalg.ErrShape) {
				t.Errorf("%s, %s sample: Decisions err = %v, want ErrShape", name, width, err)
			}
			if err := panicOf(func() { model.Decision(sample) }); !errors.Is(err, linalg.ErrShape) {
				t.Errorf("%s, %s sample: Decision panic = %v, want ErrShape", name, width, err)
			}
		}
	}
}

// panicOf runs f and returns the error it panicked with: nil when it
// returned, and an error naming the value when the value is no error.
func panicOf(f func()) (err error) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case error:
			err = r
		default:
			err = fmt.Errorf("panic %v", r)
		}
	}()
	f()
	return nil
}

// TestDecisionsAllocateOnlyTheirAccumulates pins the kernel models' scoring
// scratch to linalg's pool: at one worker, HK's and VK's Decisions allocate
// no more than the kernel.Accumulate calls they make, run on their own. HK's
// summed landmark coefficients and VK's gathered column blocks, header
// included, come back from the pool; a make of either per call, or a block
// header per learner, fails it.
func TestDecisionsAllocateOnlyTheirAccumulates(t *testing.T) {
	if !poolKeeps() {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	var k kernel.Kernel = kernel.RBF{Gamma: 0.05} // boxed once, as a model holds it
	x, models := scoringModels(k)
	hk, vk := models["hk"].(*KernelHorizontalModel), models["vk"].(*KernelVerticalModel)
	dst := make([]float64, x.Rows)

	coefG := make([]float64, hk.Landmarks.Rows)
	for _, c := range hk.CoefG {
		linalg.Axpy(1, c, coefG)
	}
	blocks := make([]*linalg.Matrix, len(vk.Cols))
	for m, cols := range vk.Cols {
		blocks[m] = linalg.NewMatrix(x.Rows, len(cols))
		for i := 0; i < x.Rows; i++ {
			for j, c := range cols {
				blocks[m].Row(i)[j] = x.Row(i)[c]
			}
		}
	}
	accumulate := func(x, support *linalg.Matrix, coef []float64) {
		if err := kernel.Accumulate(k, x, support, coef, dst); err != nil {
			t.Fatal(err)
		}
	}
	for name, pair := range map[string][2]func(){
		"hk": {
			func() {
				for m := range hk.B {
					accumulate(x, hk.SupportX[m], hk.CoefX[m])
				}
				accumulate(x, hk.Landmarks, coefG)
			},
			func() { _, _ = hk.Decisions(x, dst) },
		},
		"vk": {
			func() {
				for m := range vk.Cols {
					accumulate(blocks[m], vk.SupportX[m], vk.Alpha[m])
				}
			},
			func() { _, _ = vk.Decisions(x, dst) },
		},
	} {
		own, model := testing.AllocsPerRun(50, pair[0]), testing.AllocsPerRun(50, pair[1])
		if model > own {
			t.Errorf("%s: Decisions allocates %.0f times a call, its Accumulate calls %.0f", name, model, own)
		}
	}
}

// poolKeeps reports whether a sync.Pool hands back what was just put in it.
// It does, except under the race detector, which drops a quarter of all Puts.
func poolKeeps() bool {
	var p sync.Pool
	x := new(int)
	for i := 0; i < 64; i++ {
		p.Put(x)
		if p.Get() != x {
			return false
		}
	}
	return true
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

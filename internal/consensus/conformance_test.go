package consensus

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/eval"
	"github.com/ppml-go/ppml/internal/kernel"
	"github.com/ppml-go/ppml/internal/mapreduce"
	"github.com/ppml-go/ppml/internal/transport"
)

// TestSchemeConformance is the deterministic half of the scheme-level
// conformance matrix (ROADMAP item 1): every scheme trains the same toy job
// on the local engine and on the in-process cluster under plain, strict
// seeded and elastic (a generous deadline, no fault) aggregation, and on a
// loopback TCP cluster under strict seeded and elastic aggregation. The
// distributed configurations fold the same ring sum whatever the masks, the
// transport, the arrival order or the roster handshake — a plain share is a
// masked share without masks — and an all-present elastic round announces
// the weight a strict one does, so they must agree to the bit — decisions,
// residuals and accuracies. The local engine sums floats, and stays within
// the codec's resolution (2⁻³⁰ a share, accumulated over the rounds) of
// them. On every row the probe scores the model Train returns: the last
// accuracy is that model's on the eval set — exactly where the probe's sum
// is the model's (HL scores z, VK adds the partials in Decisions' order),
// within one eval row where it adds the same terms in another order (HK,
// VL).
func TestSchemeConformance(t *testing.T) {
	// tcp runs the job over its own loopback TCP network.
	tcp := func(t *testing.T, c *Config) {
		net := transport.NewTCP()
		t.Cleanup(func() { net.Close() })
		c.Distributed, c.Network = true, net
	}
	engines := []struct {
		name  string
		fixed bool // folds fixed-point ring sums
		arm   func(*testing.T, *Config)
	}{
		{"local", false, func(*testing.T, *Config) {}},
		{"plain", true, func(_ *testing.T, c *Config) { c.Distributed, c.Aggregation = true, mapreduce.AggregationPlain }},
		{"strict seeded", true, func(_ *testing.T, c *Config) { c.Distributed = true }},
		{"elastic", true, func(_ *testing.T, c *Config) { c.Distributed, c.StragglerTimeout = true, 30*time.Second }},
		{"strict seeded tcp", true, tcp},
		{"elastic tcp", true, func(t *testing.T, c *Config) { tcp(t, c); c.StragglerTimeout = 30 * time.Second }},
	}
	for _, sc := range conformanceSchemes(t) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			var local, fixed *outcome
			for _, eng := range engines {
				cfg := sc.base
				cfg.EvalSet = sc.test
				eng.arm(t, &cfg)
				model, h, err := sc.run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", eng.name, err)
				}
				got := &outcome{decide(model, sc.test), h}
				if h.Iterations != sc.base.MaxIterations || len(h.DeltaZSq) != h.Iterations || len(h.Accuracy) != h.Iterations {
					t.Fatalf("%s: %d iterations, %d residuals, %d accuracies, want %d of each",
						eng.name, h.Iterations, len(h.DeltaZSq), len(h.Accuracy), sc.base.MaxIterations)
				}
				modelAcc, err := eval.Accuracy(got.decisions, sc.test.Y)
				if err != nil {
					t.Fatal(err)
				}
				if last := h.Accuracy[len(h.Accuracy)-1]; math.Abs(last-modelAcc) > sc.probeRows/float64(sc.test.Len())+1e-12 {
					t.Errorf("%s: last probe accuracy %v, the returned model's %v", eng.name, last, modelAcc)
				}
				if local == nil {
					local = got
				}
				ref, tol := local, 1e-4
				if eng.fixed {
					if fixed == nil {
						fixed = got
					} else {
						ref, tol = fixed, 0
					}
				}
				for name, pair := range map[string][2][]float64{
					"decision": {got.decisions, ref.decisions},
					"DeltaZSq": {got.h.DeltaZSq, ref.h.DeltaZSq},
				} {
					for i, v := range pair[0] {
						if want := pair[1][i]; math.Abs(v-want) > tol*(1+math.Abs(want)) {
							t.Errorf("%s: %s[%d] = %v, want %v (tolerance %g)", eng.name, name, i, v, want, tol)
							break
						}
					}
				}
				// An accuracy is a count over the eval rows: within tolerance
				// of the float engines at most one row sits close enough to
				// the boundary to land on its other side.
				flips := 0.0
				if tol > 0 {
					flips = 1
				}
				for i, v := range got.h.Accuracy {
					if want := ref.h.Accuracy[i]; math.Abs(v-want) > flips/float64(sc.test.Len())+1e-12 {
						t.Errorf("%s: Accuracy[%d] = %v, want %v", eng.name, i, v, want)
						break
					}
				}
			}
		})
	}
}

// outcome is what a conformance run is judged on: the returned model's
// decisions on the eval set and the per-round history.
type outcome struct {
	decisions []float64
	h         *History
}

func decide(m decider, test *dataset.Dataset) []float64 {
	out := make([]float64, test.Len())
	for i := range out {
		out[i] = m.Decision(test.X.Row(i))
	}
	return out
}

// conformanceScheme is one scheme's toy job: run trains it under cfg, which
// starts from base with the eval set test.
type conformanceScheme struct {
	name string
	test *dataset.Dataset
	base Config
	// probeRows is how many eval rows the probe's last count may differ on
	// from the returned model's.
	probeRows float64
	run       func(cfg Config) (decider, *History, error)
}

// conformanceSchemes returns the four schemes' toy jobs: HL and VL on two
// Gaussians, HK and VK (RBF, γ = 1) on two rings.
func conformanceSchemes(t *testing.T) []conformanceScheme {
	lin := dataset.TwoGaussians("g", 120, 6, 3, 17)
	linTrain, linTest := splitAndScale(t, lin)
	rings := nonlinearRings(120, 5)
	ringTrain, ringTest, err := rings.Split(0.5)
	if err != nil {
		t.Fatal(err)
	}
	rbf := kernel.RBF{Gamma: 1}
	return []conformanceScheme{
		{"HL", linTest, Config{C: 10, Rho: 50, MaxIterations: 12}, 0, func(cfg Config) (decider, *History, error) {
			return TrainHorizontalLinear(context.Background(), horizontalParts(t, linTrain, 3, 9), cfg)
		}},
		{"HK", ringTest, Config{C: 50, Rho: 10, MaxIterations: 10, Landmarks: 12, Kernel: rbf}, 1, func(cfg Config) (decider, *History, error) {
			return TrainHorizontalKernel(context.Background(), horizontalParts(t, ringTrain, 3, 7), cfg)
		}},
		{"VL", linTest, Config{C: 10, Rho: 50, MaxIterations: 12}, 1, func(cfg Config) (decider, *History, error) {
			parts, cols := verticalParts(t, linTrain, 3, 3)
			return TrainVerticalLinear(context.Background(), parts, cols, cfg)
		}},
		{"VK", ringTest, Config{C: 50, Rho: 20, MaxIterations: 10, Kernel: rbf}, 0, func(cfg Config) (decider, *History, error) {
			parts, cols := verticalParts(t, ringTrain, 2, 5)
			return TrainVerticalKernel(context.Background(), parts, cols, cfg)
		}},
	}
}

package consensus

// Bounded-staleness chaos tests: every scheme trains over a jittered network
// with Config.Staleness armed, so mappers answer rounds with κ^s-discounted
// contributions computed against slightly old consensus states. The job must
// still converge to the clean (synchronous, full-batch) decision boundary,
// and the reducer must have actually seen stale stamps — otherwise the test
// would be asserting nothing about the async path. Every job carries an
// EvalSet, so the Reducer's per-round probe reads the learners' blocks while
// their background workers solve: the -race run covers probe-vs-solve.

import (
	"context"
	"testing"
	"time"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/kernel"
	"github.com/ppml-go/ppml/internal/telemetry"
	"github.com/ppml-go/ppml/internal/transport"
)

// asyncCluster arms cfg for bounded-staleness rounds over a fault-injected
// in-proc network with per-mapper send jitter: delayed ready declarations and
// shares stretch rounds, so background solves genuinely lag the broadcast.
func asyncCluster(cfg Config, jittered ...string) (Config, *telemetry.Registry) {
	reg := telemetry.NewRegistry()
	ch := transport.NewChaos(transport.NewInProc())
	for i, name := range jittered {
		ch.Delay(name, time.Duration(i+1)*2*time.Millisecond)
	}
	cfg.Distributed = true
	cfg.Network = ch
	cfg.StragglerTimeout = 250 * time.Millisecond
	cfg.Staleness = 2
	cfg.StalenessDecay = 0.5
	cfg.Telemetry = reg
	return cfg, reg
}

// assertStalenessObserved fails unless the reducer recorded ready stamps,
// including at least one genuinely stale (s ≥ 1) answer.
func assertStalenessObserved(t *testing.T, reg *telemetry.Registry) {
	t.Helper()
	snap := reg.Snapshot()
	var count uint64
	var sum float64
	for _, h := range snap.Histograms {
		if h.Name == "ppml_round_staleness" {
			count += h.Count
			sum += h.Sum
		}
	}
	if count == 0 {
		t.Fatal("no ppml_round_staleness samples; the async path never engaged")
	}
	if sum == 0 {
		t.Error("every ready stamp was s=0; rounds were effectively synchronous")
	}
}

func TestAsyncStalenessHorizontalLinear(t *testing.T) {
	d := dataset.SyntheticCancer(400, 3)
	train, test := splitAndScale(t, d)
	clean, _, err := TrainHorizontalLinear(context.Background(), horizontalParts(t, train, 4, 5), Config{
		C: 50, Rho: 100, MaxIterations: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The tentpole combination: minibatch chunks AND bounded staleness.
	cfg, reg := asyncCluster(Config{
		C: 50, Rho: 100, MaxIterations: 160, ChunkRows: 25, EvalSet: test,
	}, "mapper-1", "mapper-3")
	model, h, err := TrainHorizontalLinear(chaosCtx(t), horizontalParts(t, train, 4, 5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertProbedEveryRound(t, h)
	if ag := signAgreement(clean, model, test); ag < 0.9 {
		t.Errorf("async boundary agreement with clean run = %g, want ≥ 0.9", ag)
	}
	if acc := decisionAccuracy(model, test); acc < 0.9 {
		t.Errorf("async accuracy = %g, want ≥ 0.9", acc)
	}
	assertStalenessObserved(t, reg)
}

func TestAsyncStalenessHorizontalKernel(t *testing.T) {
	d := nonlinearRings(240, 3)
	train, test, err := d.Split(0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg, reg := asyncCluster(Config{
		C: 50, Rho: 10, MaxIterations: 80, Landmarks: 25, ChunkRows: 20,
		Kernel: kernel.RBF{Gamma: 1}, EvalSet: test,
	}, "mapper-0")
	model, h, err := TrainHorizontalKernel(chaosCtx(t), horizontalParts(t, train, 3, 7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertProbedEveryRound(t, h)
	if acc := decisionAccuracy(model, test); acc < 0.85 {
		t.Errorf("async HK accuracy on rings = %g, want ≥ 0.85", acc)
	}
	assertStalenessObserved(t, reg)
}

func TestAsyncStalenessVerticalLinear(t *testing.T) {
	d := dataset.TwoGaussians("g", 300, 8, 3.2, 21)
	train, test := splitAndScale(t, d)
	parts, cols := verticalParts(t, train, 4, 3)
	clean, _, err := TrainVerticalLinear(context.Background(), parts, cols, Config{
		C: 50, Rho: 100, MaxIterations: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Vertical schemes reject ChunkRows+Staleness, so this runs full-batch
	// sub-problems with stale shares.
	cfg, reg := asyncCluster(Config{
		C: 50, Rho: 100, MaxIterations: 140, EvalSet: test,
	}, "mapper-2")
	partsA, colsA := verticalParts(t, train, 4, 3)
	model, h, err := TrainVerticalLinear(chaosCtx(t), partsA, colsA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertProbedEveryRound(t, h)
	if ag := signAgreement(clean, model, test); ag < 0.9 {
		t.Errorf("async VL boundary agreement = %g, want ≥ 0.9", ag)
	}
	if acc := decisionAccuracy(model, test); acc < 0.9 {
		t.Errorf("async VL accuracy = %g, want ≥ 0.9", acc)
	}
	assertStalenessObserved(t, reg)
}

func TestAsyncStalenessVerticalKernel(t *testing.T) {
	d := nonlinearRings(300, 31)
	train, test, err := d.Split(0.5)
	if err != nil {
		t.Fatal(err)
	}
	parts, cols := verticalParts(t, train, 2, 5)
	cfg, reg := asyncCluster(Config{
		C: 50, Rho: 20, MaxIterations: 90,
		Kernel: kernel.RBF{Gamma: 1}, EvalSet: test,
	}, "mapper-1")
	model, h, err := TrainVerticalKernel(chaosCtx(t), parts, cols, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertProbedEveryRound(t, h)
	if acc := decisionAccuracy(model, test); acc < 0.85 {
		t.Errorf("async VK accuracy on rings = %g, want ≥ 0.85", acc)
	}
	assertStalenessObserved(t, reg)
}

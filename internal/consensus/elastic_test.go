package consensus

// Kill-k-of-M chaos tests for the elastic (demote-and-continue) driver: a
// fault-injecting transport murders live mappers mid-training and the job
// must keep converging on the survivors instead of stalling or aborting. The
// horizontal schemes lose two of eight learners permanently — their data is
// gone, but the survivors' consensus boundary must still match a clean run,
// because the partitions are i.i.d. draws of the same distribution. The
// vertical schemes cannot afford permanent loss (a dead learner's feature
// block would vanish from the model), so there the dead learners are healed
// and must rejoin and catch up within the iteration budget.

import (
	"context"
	"testing"
	"time"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/kernel"
	"github.com/ppml-go/ppml/internal/telemetry"
	"github.com/ppml-go/ppml/internal/transport"
)

// chaosCluster arms cfg for the elastic driver over a fault-injected in-proc
// network, under seeded masks (the only masks elastic rounds run; each kill
// scenario is the "seeded" subtest).
func chaosCluster(cfg Config) (Config, *transport.Chaos, *telemetry.Registry) {
	reg := telemetry.NewRegistry()
	ch := transport.NewChaos(transport.NewInProc())
	cfg.Distributed = true
	cfg.Network = ch
	cfg.StragglerTimeout = 60 * time.Millisecond
	cfg.Telemetry = reg
	return cfg, ch, reg
}

// The rounds the chaos scenarios kill and heal their learners in: faults keyed
// to the round stamp land mid-training on every run, however fast the box.
const (
	killRound = 5
	healRound = 15
)

// killAt cuts the named endpoints off both ways from round r on.
func killAt(ch *transport.Chaos, r int32, names ...string) {
	ch.AtRound(r, func() {
		for _, n := range names {
			ch.Kill(n)
		}
	})
}

// healAt is killAt's inverse, for the transient-death scenarios.
func healAt(ch *transport.Chaos, r int32, names ...string) {
	ch.AtRound(r, func() {
		for _, n := range names {
			ch.Heal(n)
		}
	})
}

type decider interface{ Decision(x []float64) float64 }

// signAgreement is the fraction of rows on which both models pick the same
// side of the boundary.
func signAgreement(a, b decider, d *dataset.Dataset) float64 {
	same := 0
	for i := 0; i < d.Len(); i++ {
		x := d.X.Row(i)
		if (a.Decision(x) >= 0) == (b.Decision(x) >= 0) {
			same++
		}
	}
	return float64(same) / float64(d.Len())
}

// decisionAccuracy is the correct-classification ratio via Decision, the one
// method all four scheme models share.
func decisionAccuracy(m decider, d *dataset.Dataset) float64 {
	correct := 0
	for i := 0; i < d.Len(); i++ {
		if (m.Decision(d.X.Row(i)) >= 0) == (d.Y[i] > 0) {
			correct++
		}
	}
	return float64(correct) / float64(d.Len())
}

// assertChaosOutcome checks the contract every kill scenario shares: the
// survivors' boundary agrees with the clean reference, still classifies the
// held-out set, and the roster churn the telemetry recorded matches the
// murders that were committed.
func assertChaosOutcome(t *testing.T, reg *telemetry.Registry, clean, survived decider, test *dataset.Dataset, minDemotions, minRejoins int64) {
	t.Helper()
	if ag := signAgreement(clean, survived, test); ag < 0.85 {
		t.Errorf("boundary agreement with the clean run = %g, want ≥ 0.85", ag)
	}
	if acc := decisionAccuracy(survived, test); acc < 0.85 {
		t.Errorf("survivors' accuracy = %g, want ≥ 0.85", acc)
	}
	snap := reg.Snapshot()
	if got := snap.CounterTotal("ppml_mapper_demotions_total"); got < minDemotions {
		t.Errorf("ppml_mapper_demotions_total = %d, want ≥ %d (the killed mappers)", got, minDemotions)
	}
	if got := snap.CounterTotal("ppml_mapper_rejoins_total"); got < minRejoins {
		t.Errorf("ppml_mapper_rejoins_total = %d, want ≥ %d (the healed mappers)", got, minRejoins)
	}
}

func chaosCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// assertProbedEveryRound: with an EvalSet every folded round recorded one
// accuracy, whatever the roster.
func assertProbedEveryRound(t *testing.T, h *History) {
	t.Helper()
	if h.Iterations == 0 || len(h.Accuracy) != h.Iterations {
		t.Errorf("%d accuracies over %d iterations", len(h.Accuracy), h.Iterations)
	}
}

// Each chaos scenario trains its chaos job in subtest "seeded" and returns how
// long that job took on the clock it ran under: the wall clock in these
// tests, a synctest bubble's fake clock in chaos_synctest_test.go.

func TestElasticChaosKillHorizontalLinear(t *testing.T) { chaosKillHorizontalLinear(t) }

// The minibatch variant: each learner's 30 rows split into three chunks, so
// the survivors fold chunk updates over a shrunken roster.
func TestElasticChaosKillHorizontalLinearChunks(t *testing.T) { chaosKillHorizontalLinearChunks(t) }

func chaosKillHorizontalLinear(t *testing.T) time.Duration {
	return chaosKillHorizontalLinearRows(t, 0)
}

func chaosKillHorizontalLinearChunks(t *testing.T) time.Duration {
	return chaosKillHorizontalLinearRows(t, 10)
}

func chaosKillHorizontalLinearRows(t *testing.T, chunkRows int) (took time.Duration) {
	d := dataset.TwoGaussians("g", 480, 4, 3, 61)
	train, test := splitAndScale(t, d)
	base := Config{C: 10, Rho: 50, MaxIterations: 30, ChunkRows: chunkRows}
	clean, _, err := TrainHorizontalLinear(chaosCtx(t), horizontalParts(t, train, 8, 3), base)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("seeded", func(t *testing.T) {
		cfg, ch, reg := chaosCluster(base)
		killAt(ch, killRound, "mapper-5", "mapper-6")
		cfg.EvalSet = test
		start := time.Now()
		model, h, err := TrainHorizontalLinear(chaosCtx(t), horizontalParts(t, train, 8, 3), cfg)
		took = time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if h.Iterations != base.MaxIterations {
			t.Errorf("ran %d of %d iterations despite demote-and-continue", h.Iterations, base.MaxIterations)
		}
		assertProbedEveryRound(t, h)
		assertChaosOutcome(t, reg, clean, model, test, 2, 0)
	})
	return took
}

func TestElasticChaosKillHorizontalKernel(t *testing.T) { chaosKillHorizontalKernel(t) }

func chaosKillHorizontalKernel(t *testing.T) (took time.Duration) {
	d := dataset.TwoGaussians("g", 240, 3, 3, 17)
	train, test := splitAndScale(t, d)
	base := Config{C: 10, Rho: 20, MaxIterations: 25, Kernel: kernel.RBF{Gamma: 0.5}}
	clean, _, err := TrainHorizontalKernel(chaosCtx(t), horizontalParts(t, train, 8, 5), base)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("seeded", func(t *testing.T) {
		cfg, ch, reg := chaosCluster(base)
		killAt(ch, killRound, "mapper-2", "mapper-7")
		start := time.Now()
		model, _, err := TrainHorizontalKernel(chaosCtx(t), horizontalParts(t, train, 8, 5), cfg)
		took = time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		assertChaosOutcome(t, reg, clean, model, test, 2, 0)
	})
	return took
}

func TestElasticChaosKillAndHealVerticalLinear(t *testing.T) { chaosKillAndHealVerticalLinear(t) }

func chaosKillAndHealVerticalLinear(t *testing.T) (took time.Duration) {
	d := dataset.TwoGaussians("g", 240, 10, 3, 29)
	train, test := splitAndScale(t, d)
	base := Config{C: 50, Rho: 100, MaxIterations: 30}
	parts, cols := verticalParts(t, train, 8, 7)
	clean, _, err := TrainVerticalLinear(chaosCtx(t), parts, cols, base)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("seeded", func(t *testing.T) {
		cfg, ch, reg := chaosCluster(base)
		// A vertical learner owns feature columns nothing else can
		// replace, so the death is transient: the survivors carry the
		// rounds in between, and the healed learners must rejoin with
		// their blocks before the budget runs out.
		killAt(ch, killRound, "mapper-3", "mapper-6")
		healAt(ch, healRound, "mapper-3", "mapper-6")
		// The per-round probe reads the learners' blocks while demoted
		// stragglers may still be solving (-race covers probe-vs-solve).
		cfg.EvalSet = test
		partsD, colsD := verticalParts(t, train, 8, 7)
		start := time.Now()
		model, h, err := TrainVerticalLinear(chaosCtx(t), partsD, colsD, cfg)
		took = time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		assertProbedEveryRound(t, h)
		assertChaosOutcome(t, reg, clean, model, test, 2, 2)
	})
	return took
}

func TestElasticChaosKillAndHealVerticalKernel(t *testing.T) { chaosKillAndHealVerticalKernel(t) }

func chaosKillAndHealVerticalKernel(t *testing.T) (took time.Duration) {
	d := dataset.TwoGaussians("g", 320, 10, 4, 37)
	train, test := splitAndScale(t, d)
	base := Config{C: 10, Rho: 20, MaxIterations: 40, Kernel: kernel.RBF{Gamma: 0.5}}
	parts, cols := verticalParts(t, train, 8, 9)
	clean, _, err := TrainVerticalKernel(chaosCtx(t), parts, cols, base)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("seeded", func(t *testing.T) {
		cfg, ch, reg := chaosCluster(base)
		killAt(ch, killRound, "mapper-1", "mapper-4")
		healAt(ch, healRound, "mapper-1", "mapper-4")
		cfg.EvalSet = test
		partsD, colsD := verticalParts(t, train, 8, 9)
		start := time.Now()
		model, h, err := TrainVerticalKernel(chaosCtx(t), partsD, colsD, cfg)
		took = time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		assertProbedEveryRound(t, h)
		assertChaosOutcome(t, reg, clean, model, test, 2, 2)
	})
	return took
}

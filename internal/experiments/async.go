package experiments

// Async-round benchmark: the measurements behind BENCH_async.json. Each
// scheme trains twice on the identical partitioning over the identical
// jittered network — once bulk-synchronous, once with bounded-staleness
// rounds (plus minibatch chunks where the scheme supports them) — and the
// report compares wall-clock time to a shared target accuracy. Under
// heavy-tail send jitter a synchronous round stalls on every tail draw; an
// elastic round demotes the unlucky mapper at the straggler window, folds
// its share stale, and proceeds at the fast majority's pace — and minibatch
// chunks shrink the horizontal solve itself. The numbers feed the
// EXPERIMENTS.md accuracy-vs-wall-clock table; `make bench-async`
// regenerates the JSON via ppml-figures -panel async.

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"github.com/ppml-go/ppml/internal/consensus"
	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/partition"
	"github.com/ppml-go/ppml/internal/telemetry"
	"github.com/ppml-go/ppml/internal/transport"
)

// Async bench parameters. Every mapper's sends pay the base latency; the
// last mapper sits behind a flaky link whose sends draw a seeded two-point
// latency — tail with probability asyncJitterProb, base otherwise. That is
// the single-straggler regime bounded staleness exists for: the synchronous
// driver stalls a full tail on every unlucky draw, while the elastic
// driver's straggler window (between base and tail) demotes the flaky
// mapper for the round, folds its share stale, and proceeds at the fast
// majority's pace. Only one mapper is flaky, so the roster never falls
// below quorum.
const (
	asyncJitterBase  = time.Millisecond
	asyncJitterTail  = 60 * time.Millisecond
	asyncJitterProb  = 0.25
	asyncStraggler   = 6 * time.Millisecond
	asyncStaleness   = 2
	asyncDecay       = 0.5
	asyncChunkRows   = 24
	asyncExtraRounds = 2 // async iteration budget = sync budget x this
	// asyncMinRows floors the sample count so the horizontal local solve is
	// genuinely expensive: minibatch chunks then shrink it, which is the
	// second half of the async win (the first is not stalling on the tail).
	asyncMinRows = 9600
)

// AsyncRun is one training run of the comparison.
type AsyncRun struct {
	// Mode is "sync" (bulk-synchronous distributed rounds) or "async"
	// (bounded-staleness elastic rounds; minibatch chunks on the
	// horizontal scheme).
	Mode       string
	Iterations int
	Seconds    float64
	// Accuracy is the final held-out correct-classification ratio.
	Accuracy float64
	// IterationsToTarget and SecondsToTarget locate the first iteration
	// whose held-out accuracy reached the shared target. Seconds are
	// prorated from the run's mean round time.
	IterationsToTarget int
	SecondsToTarget    float64
	// MeanStaleness is the average ready-stamp age the reducer folded
	// (async mode; 0 for sync).
	MeanStaleness float64
	// Demotions, Rejoins and Timeouts are the Reducer's roster transitions
	// and expired straggler windows over the run (all 0 in sync mode).
	Demotions, Rejoins, Timeouts int64
}

// AsyncScheme compares the two modes on one training scheme.
type AsyncScheme struct {
	Scheme string
	// TargetAccuracy is 98% of the weaker run's final accuracy, so both
	// runs provably crossed it.
	TargetAccuracy float64
	Sync           AsyncRun
	Async          AsyncRun
	// Speedup is sync vs async wall-clock to the target (>1: async wins).
	Speedup float64
}

// AsyncReport is the schema of BENCH_async.json.
type AsyncReport struct {
	Meta     RunMeta
	Learners int
	// JitterBaseMs is every send's base latency; the last mapper's flaky
	// link additionally draws JitterTailMs with probability JitterTailProb.
	// StragglerMs is the round engine's demotion window, between base and
	// tail.
	JitterBaseMs   float64
	JitterTailMs   float64
	JitterTailProb float64
	StragglerMs    float64
	ChunkRows      int
	Staleness      int
	StalenessDecay float64
	Schemes        []AsyncScheme
	// MinibatchHash1/2 are FNV-64a hashes of the models from two identical
	// seeded single-process minibatch runs; Reproducible asserts they are
	// bit-equal (the chunk schedule is a seeded permutation, not a race).
	MinibatchHash1 string
	MinibatchHash2 string
	Reproducible   bool
}

// RunAsync measures bulk-synchronous vs bounded-staleness training to target
// accuracy on the cancer workload under injected send jitter.
func RunAsync(ctx context.Context, o Options) (*AsyncReport, error) {
	data := dataset.SyntheticCancer(max(o.CancerN, asyncMinRows), o.Seed)
	train, test, err := data.Split(0.5)
	if err != nil {
		return nil, fmt.Errorf("experiments: async: %w", err)
	}
	scaler := dataset.FitScaler(train)
	if err := scaler.Apply(train); err != nil {
		return nil, fmt.Errorf("experiments: async: %w", err)
	}
	if err := scaler.Apply(test); err != nil {
		return nil, fmt.Errorf("experiments: async: %w", err)
	}
	m := o.Learners
	if m < 2 {
		m = 4
	}
	rep := &AsyncReport{
		Meta:           CollectMeta(),
		Learners:       m,
		JitterBaseMs:   float64(asyncJitterBase) / float64(time.Millisecond),
		JitterTailMs:   float64(asyncJitterTail) / float64(time.Millisecond),
		JitterTailProb: asyncJitterProb,
		StragglerMs:    float64(asyncStraggler) / float64(time.Millisecond),
		ChunkRows:      asyncChunkRows,
		Staleness:      asyncStaleness,
		StalenessDecay: asyncDecay,
	}

	base := consensus.Config{
		C: o.C, Rho: o.Rho, MaxIterations: o.Iterations, Seed: o.Seed, EvalSet: test,
	}
	for _, sch := range []struct {
		name   string
		chunks bool // minibatch applies (horizontal only; vertical
		// sub-problems share the score vector and reject chunk+staleness)
		train func(ctx context.Context, cfg consensus.Config) (*consensus.History, error)
	}{
		{"horizontal-linear", true, func(ctx context.Context, cfg consensus.Config) (*consensus.History, error) {
			parts, _, err := partition.Horizontal(train, m, rand.New(rand.NewSource(o.Seed)))
			if err != nil {
				return nil, err
			}
			_, h, err := consensus.TrainHorizontalLinear(ctx, parts, cfg)
			return h, err
		}},
		{"vertical-linear", false, func(ctx context.Context, cfg consensus.Config) (*consensus.History, error) {
			parts, cols, err := partition.Vertical(train, m, rand.New(rand.NewSource(o.Seed)))
			if err != nil {
				return nil, err
			}
			_, h, err := consensus.TrainVerticalLinear(ctx, parts, cols, cfg)
			return h, err
		}},
	} {
		syncCfg := base
		syncRun, syncAcc, err := asyncOneRun(ctx, "sync", syncCfg, m, sch.train)
		if err != nil {
			return nil, fmt.Errorf("experiments: async %s sync: %w", sch.name, err)
		}
		asyncCfg := base
		asyncCfg.MaxIterations = o.Iterations * asyncExtraRounds
		asyncCfg.StragglerTimeout = asyncStraggler
		asyncCfg.Staleness = asyncStaleness
		asyncCfg.StalenessDecay = asyncDecay
		if sch.chunks {
			asyncCfg.ChunkRows = asyncChunkRows
		}
		asyncRun, asyncAcc, err := asyncOneRun(ctx, "async", asyncCfg, m, sch.train)
		if err != nil {
			return nil, fmt.Errorf("experiments: async %s async: %w", sch.name, err)
		}

		target := 0.98 * min(syncRun.Accuracy, asyncRun.Accuracy)
		syncRun.IterationsToTarget, syncRun.SecondsToTarget = timeToTarget(syncAcc, target, syncRun)
		asyncRun.IterationsToTarget, asyncRun.SecondsToTarget = timeToTarget(asyncAcc, target, asyncRun)
		s := AsyncScheme{
			Scheme:         sch.name,
			TargetAccuracy: target,
			Sync:           *syncRun,
			Async:          *asyncRun,
		}
		if asyncRun.SecondsToTarget > 0 {
			s.Speedup = syncRun.SecondsToTarget / asyncRun.SecondsToTarget
		}
		rep.Schemes = append(rep.Schemes, s)
	}

	// Bit-reproducibility of the minibatch schedule: two identical seeded
	// single-process runs must produce the identical model, because chunk
	// visit order is a seeded permutation and the round loop is
	// deterministic without a network in the way.
	for i := 0; i < 2; i++ {
		cfg := base
		cfg.ChunkRows = asyncChunkRows
		parts, _, err := partition.Horizontal(train, m, rand.New(rand.NewSource(o.Seed)))
		if err != nil {
			return nil, fmt.Errorf("experiments: async repro: %w", err)
		}
		model, _, err := consensus.TrainHorizontalLinear(ctx, parts, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: async repro: %w", err)
		}
		h := fnv.New64a()
		var buf [8]byte
		for _, w := range model.W {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(w))
			h.Write(buf[:])
		}
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(model.B))
		h.Write(buf[:])
		sum := fmt.Sprintf("%016x", h.Sum64())
		if i == 0 {
			rep.MinibatchHash1 = sum
		} else {
			rep.MinibatchHash2 = sum
		}
	}
	rep.Reproducible = rep.MinibatchHash1 == rep.MinibatchHash2
	return rep, nil
}

// asyncOneRun executes one training run over a fresh jittered network and
// returns the run row plus its per-iteration accuracy curve.
func asyncOneRun(ctx context.Context, mode string, cfg consensus.Config, m int,
	train func(ctx context.Context, cfg consensus.Config) (*consensus.History, error),
) (*AsyncRun, []float64, error) {
	reg := telemetry.NewRegistry()
	ch := transport.NewChaos(transport.NewInProc())
	for i := 0; i < m; i++ {
		p := 0.0 // steady links: base latency only
		if i == m-1 {
			p = asyncJitterProb // the flaky link
		}
		ch.Jitter(fmt.Sprintf("mapper-%d", i),
			asyncJitterBase, asyncJitterTail, p, cfg.Seed+int64(i))
	}
	cfg.Distributed = true
	cfg.Network = ch
	cfg.Telemetry = reg
	runCtx, cancel := context.WithTimeout(ctx, 5*time.Minute)
	defer cancel()
	h, err := train(runCtx, cfg)
	if err != nil {
		return nil, nil, err
	}
	run := &AsyncRun{
		Mode:       mode,
		Iterations: h.Iterations,
		Seconds:    h.Elapsed.Seconds(),
	}
	if n := len(h.Accuracy); n > 0 {
		run.Accuracy = h.Accuracy[n-1]
	}
	snap := reg.Snapshot()
	var count uint64
	var sum float64
	for _, hist := range snap.Histograms {
		if hist.Name == "ppml_round_staleness" {
			count += hist.Count
			sum += hist.Sum
		}
	}
	if count > 0 {
		run.MeanStaleness = sum / float64(count)
	}
	run.Demotions = snap.CounterTotal("ppml_mapper_demotions_total")
	run.Rejoins = snap.CounterTotal("ppml_mapper_rejoins_total")
	run.Timeouts = snap.CounterTotal("ppml_round_timeouts_total")
	return run, h.Accuracy, nil
}

// timeToTarget locates the first iteration whose accuracy reached target and
// prorates the run's wall clock by its mean round time. Returns (-1, -1)
// when the curve never crossed (cannot happen for the shared target, which
// both final accuracies dominate).
func timeToTarget(acc []float64, target float64, run *AsyncRun) (int, float64) {
	for i, a := range acc {
		if a >= target {
			perRound := run.Seconds / float64(max(run.Iterations, 1))
			return i + 1, float64(i+1) * perRound
		}
	}
	return -1, -1
}

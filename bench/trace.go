package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/ppml-go/ppml/internal/eval"
	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/svm"
	"github.com/ppml-go/ppml/internal/transport"
)

// driftCeiling is the largest |decision_masked − decision_local| the traced
// pass accepts: the secure path may differ from the local engine by
// fixed-point quantisation of the shares, nothing more.
const driftCeiling = 1e-3

// The ladder makes at least one pass over its rungs, then more while
// ladderBudget lasts, at most maxLadderPasses.
const (
	ladderBudget    = 8 * time.Second
	maxLadderPasses = 3
)

// centralRows caps the central baseline's training set: SMO on all 4,000
// pooled Higgs rows of hl_chunks_dfs takes 100 s.
const centralRows = 800

// measureLayers is the traced pass for one workload. Three sources, all in
// this directory and all outside the program under test:
//
//   - tap: one real run with every transport call spanned (tap.go);
//   - ladder: the same job on stripped-down rungs, whose differences
//     attribute wall-clock to layers;
//   - replay: direct timed calls into each layer at the workload's shapes
//     (replay.go).
//
// It is never mixed with the end-to-end pass: the tapped run is slower, and
// trace.overhead_share says by how much.
func measureLayers(ctx context.Context, w workload, o options) (*result, error) {
	res := &result{Workload: w, Seed: o.Seed, Trace: true, Metrics: metrics{}}
	m := res.Metrics
	set := func(name string, v float64) { m.set(perLayer, name, v) }

	in, err := prepare(w, o.Seed)
	if err != nil {
		return nil, err
	}
	set("dataset.generate_ms", ms(in.stages.generate))
	set("dataset.standardize_ms", ms(in.stages.standardize))
	set("partition.split_ms", ms(in.stages.split))

	// One discarded full call, so no rung below pays first-touch costs or
	// the box's slow first second (see measureEndToEnd).
	res.Attempted++
	if _, err := in.train(ctx, w.Rounds, rungOwn, nil); err != nil {
		res.fail("warm-up: %v", err)
		return res.finish(), nil
	}

	// The ladder: the same job on five rungs, round-robin for several passes
	// so a slow spell of the box lands on every rung alike. A rung's time is
	// its fastest pass.
	rungs := []struct {
		label string
		r     rung
		tap   bool
	}{
		{"own", rungOwn, false}, {"tapped", rungOwn, true}, {"local", rungLocal, false},
		{"plain", rungPlain, false}, {"other transport", rungTransport, false},
	}
	const own, tapped, local, plain, other = 0, 1, 2, 3, 4
	passes := maxLadderPasses
	if o.Smoke {
		passes = 1
	}
	best := make([]float64, len(rungs))
	last := make([]trained, len(rungs))
	var tp *tap
	for pass, start := 0, time.Now(); pass < passes && (pass == 0 || time.Since(start) < ladderBudget); pass++ {
		for i, rg := range rungs {
			var wrap func(transport.Network) transport.Network
			if rg.tap {
				wrap = func(n transport.Network) transport.Network {
					tp = newTap(n)
					return tp
				}
			}
			res.Attempted++
			t0 := time.Now()
			t, err := in.train(ctx, w.Rounds, rg.r, wrap)
			dt := time.Since(t0).Seconds()
			if err != nil {
				res.fail("%s: %v", rg.label, err)
				return res.finish(), nil
			}
			if pass == 0 || dt < best[i] {
				best[i] = dt
			}
			last[i] = t
		}
	}

	ref := in.outcomeOf(last[own])
	res.ModelHash = fmt.Sprintf("%016x", ref.hash)
	if err := w.gate(ref); err != nil {
		res.fail("own: %v", err)
	}

	// Tap: the tapped run must be the untapped run, observed.
	spans := tp.spans()
	msgs, bytes := census(spans)
	got := in.outcomeOf(last[tapped])
	if msgs != got.msgs || bytes != got.bytes {
		res.fail("tap census %d msgs %d bytes, History.Net has %d msgs %d bytes", msgs, bytes, got.msgs, got.bytes)
	}
	if got.hash != ref.hash {
		res.fail("tapped run's model %016x differs from the untapped run's %016x", got.hash, ref.hash)
	}
	tapMetrics(m, spans, tp.Stats(), w.Rounds)
	set("trace.overhead_share", (best[tapped]-best[own])/best[own])

	set("consensus.local_engine_s", best[local])
	set("mapreduce.engine_overhead_s", best[plain]-best[local])
	set("securesum.mask_overhead_s", best[own]-best[plain])
	tcpS, inprocS := best[other], best[own]
	if w.TCP {
		tcpS, inprocS = inprocS, tcpS
	}
	set("transport.tcp_overhead_s", tcpS-inprocS)
	drift := 0.0
	ld, od := in.decisions(last[local].model), in.decisions(last[own].model)
	for i := range ld {
		drift = math.Max(drift, math.Abs(ld[i]-od[i]))
	}
	set("consensus.decision_drift", drift)
	if !(drift <= driftCeiling) {
		res.fail("secure path drifted %.3g from the local engine (ceiling %.3g)", drift, driftCeiling)
	}

	// The plain single-worker baseline: one SVM on the pooled data (its first
	// centralRows rows).
	params := svm.Params{C: paramC}
	if w.Scheme == schemeHK || w.Scheme == schemeVK {
		params.Kernel = in.kernel()
	}
	n := min(in.pooled.Len(), centralRows)
	px := &linalg.Matrix{Rows: n, Cols: in.pooled.X.Cols, Data: in.pooled.X.Data[:n*in.pooled.X.Cols]}
	t0 := time.Now()
	central, err := svm.Train(px, in.pooled.Y[:n], params)
	if err != nil {
		res.fail("central svm: %v", err)
	} else {
		set("svm.central_train_s", time.Since(t0).Seconds())
		acc, err := eval.ClassifierAccuracy(central, in.eval)
		if err != nil {
			res.fail("central svm: %v", err)
		}
		set("svm.central_accuracy", acc)
	}

	rp := replayer{inputs: in, m: m, budget: clockBudget}
	if o.Smoke {
		rp.budget = 0
	}
	if err := rp.run(last[own].model); err != nil {
		res.fail("replay: %v", err)
	}
	return res.finish(), nil
}

// finish closes a traced result: every per-layer metric is present (0 where
// the workload's scheme never exercises the layer) and correct means no
// call failed.
func (r *result) finish() *result {
	r.Metrics.complete(perLayer)
	r.Correct = r.Failed == 0
	return r
}

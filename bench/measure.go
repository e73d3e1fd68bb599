package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options are the knobs of one measurement, shared by both passes.
type options struct {
	Seed    int64   // perturbs the inputs; see perturb in workloads.go
	Seconds float64 // set-up probes and timed training calls repeat until this much wall-clock is spent
	Repeats int     // >0 fixes the number of timed calls instead
	Trace   bool    // the per-layer pass instead of the end-to-end pass
	Smoke   bool    // tiny shapes, gates off
}

const (
	defaultSeconds = 12 // BENCHMARK.json's run_seconds
	minRepeats     = 3

	// Set-up is cheap and noisy (5 ms on hl_rounds_tcp), so it is probed
	// before every timed call: once, then until probeSlice is spent or
	// maxProbesPerCall are made. Riding between the calls spreads the probes
	// over the whole run, so a slow spell of the box lands on a few of them
	// and the lower quartile does not see it. No more than 3 per call: every
	// probe of a TCP workload leaves ~60 sockets in TIME_WAIT for a minute,
	// and 8 per call held 53,000 of the kernel's 65,536 there.
	probeSlice       = 100 * time.Millisecond
	maxProbesPerCall = 3
)

// result is one workload's outcome, in either pass.
type result struct {
	Workload  workload `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	ModelHash string   `json:"model_hash"`
	BoxSpeed  float64  `json:"box_speed,omitempty"` // end-to-end pass: what its timings were multiplied by (see speed.go)
	Failures  []string `json:"failures,omitempty"`
	Metrics   metrics  `json:"metrics"`
}

func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// failedShare is the eleventh end-to-end figure (see endToEnd).
func (r *result) failedShare() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// outcome is what the determinism check compares between calls.
type outcome struct {
	hash        uint64
	bytes, msgs int64
	roundsToAcc int
	accuracy    float64
	lastDz      float64
	iterations  int
}

// modelHash is FNV-1a over the model's decision values on the eval set: it
// changes iff a change moved the arithmetic of the trained model.
func modelHash(decisions []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, d := range decisions {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(d))
		h.Write(b[:])
	}
	return h.Sum64()
}

func (in *inputs) decisions(m decider) []float64 {
	out := make([]float64, in.eval.Len())
	for i := range out {
		out[i] = m.Decision(in.eval.X.Row(i))
	}
	return out
}

func (in *inputs) outcomeOf(t trained) outcome {
	h := t.hist
	o := outcome{
		hash:  modelHash(in.decisions(t.model)),
		bytes: h.Net.Bytes, msgs: h.Net.Messages,
		iterations:  h.Iterations,
		roundsToAcc: in.w.Rounds + 1, // never reached: worse than any round that did
	}
	if n := len(h.Accuracy); n > 0 {
		o.accuracy = h.Accuracy[n-1]
	}
	if n := len(h.DeltaZSq); n > 0 {
		o.lastDz = h.DeltaZSq[n-1]
	}
	for r, a := range h.Accuracy {
		if a >= in.w.AccTarget {
			o.roundsToAcc = r + 1
			break
		}
	}
	return o
}

// gate is the quality gate of one full-budget training call.
func (w workload) gate(o outcome) error {
	switch {
	case o.iterations != w.Rounds:
		return fmt.Errorf("ran %d rounds, want %d", o.iterations, w.Rounds)
	case o.accuracy < w.AccFloor:
		return fmt.Errorf("final accuracy %.4f below floor %.4f", o.accuracy, w.AccFloor)
	case !(o.lastDz <= w.DzCeiling):
		return fmt.Errorf("last ||dz||^2 %.3g above ceiling %.3g", o.lastDz, w.DzCeiling)
	}
	return nil
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMiB is this process's high-water resident set: VmHWM of
// /proc/self/status. Not ru_maxrss, which survives exec and so starts at the
// footprint of whatever launched the benchmark (26 MiB under `go run`).
func peakRSSMiB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kib / 1024
		}
	}
	return 0
}

// measureEndToEnd is the tracing-off pass for one workload: a warm-up
// training call that becomes the determinism reference, then timed calls,
// each preceded by a few set-up probes, until the time budget is spent.
//
// The warm-up comes first on purpose. On the reference box a process that
// starts after an idle spell runs at about half speed for its first second;
// a discarded second of real work keeps that out of every reported number.
func measureEndToEnd(ctx context.Context, w workload, o options) (*result, error) {
	res := &result{Workload: w, Seed: o.Seed, Metrics: metrics{}}
	in, err := prepare(w, o.Seed)
	if err != nil {
		return nil, err
	}

	// Warm-up: discarded for timing; its outcome is what every repeat must
	// reproduce.
	res.Attempted++
	warm, err := in.train(ctx, w.Rounds, rungOwn, nil)
	if err != nil {
		res.fail("warm-up: %v", err)
		return res, nil
	}
	ref := in.outcomeOf(warm)
	res.ModelHash = fmt.Sprintf("%016x", ref.hash)
	if err := w.gate(ref); err != nil {
		res.fail("warm-up: %v", err)
	}

	// Set-up: everything a cohort pays before its second round, on fresh
	// inputs every time. The previous inputs are dropped and collected first
	// (outside the timed region), so peak_rss_mb is the footprint of one job,
	// not of the probes' garbage; the last probe's inputs serve the next
	// timed call.
	var setup, setupTrain []float64
	probe := func() error {
		in = nil
		runtime.GC()
		t0 := time.Now()
		if in, err = prepare(w, o.Seed); err != nil {
			return err
		}
		t1 := time.Now()
		res.Attempted++
		if _, err := in.train(ctx, 1, rungOwn, nil); err != nil {
			res.fail("set-up probe %d: %v", len(setup), err)
			return nil
		}
		setup = append(setup, time.Since(t0).Seconds())
		setupTrain = append(setupTrain, time.Since(t1).Seconds())
		return nil
	}
	slice := probeSlice
	if o.Smoke {
		slice = 0
	}

	var wall, cpu, allocs, speed []float64
	var ms0, ms1 runtime.MemStats
	budget := time.Duration(o.Seconds * float64(time.Second))
	start := time.Now()
	for i := 0; ; i++ {
		if o.Repeats > 0 {
			if i >= o.Repeats {
				break
			}
		} else if i >= minRepeats && time.Since(start) >= budget {
			break
		}
		for k, t0 := 0, time.Now(); k < maxProbesPerCall && (k == 0 || time.Since(t0) < slice); k++ {
			if err := probe(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // every call starts from the same heap, outside the timed region
		runtime.ReadMemStats(&ms0)
		c0 := cpuSeconds()
		t0 := time.Now()
		res.Attempted++
		t, err := in.train(ctx, w.Rounds, rungOwn, nil)
		dt := time.Since(t0).Seconds()
		dc := cpuSeconds() - c0
		runtime.ReadMemStats(&ms1)
		for p0 := time.Now(); ; {
			speed = append(speed, speedProbe())
			if time.Since(p0).Seconds() >= speedProbeShare*dt {
				break
			}
		}
		if err != nil {
			res.fail("call %d: %v", i, err)
			continue
		}
		got := in.outcomeOf(t)
		if err := w.gate(got); err != nil {
			res.fail("call %d: %v", i, err)
			continue
		}
		if got.hash != ref.hash || got.bytes != ref.bytes || got.msgs != ref.msgs || got.roundsToAcc != ref.roundsToAcc {
			res.fail("call %d broke determinism: hash %016x bytes %d msgs %d rounds_to_acc %d, warm-up had %016x %d %d %d",
				i, got.hash, got.bytes, got.msgs, got.roundsToAcc, ref.hash, ref.bytes, ref.msgs, ref.roundsToAcc)
			continue
		}
		wall = append(wall, dt)
		cpu = append(cpu, dc)
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs)/float64(w.Rounds))
	}
	res.Correct = res.Failed == 0
	if len(wall) == 0 || len(setup) == 0 {
		return res, nil
	}

	m := res.Metrics
	// A timing is reported as the lower quartile of its calls, with the
	// five-number summary beside it. On a shared box interference only ever
	// adds time, in spells that last from 0.1 s to several seconds, so the
	// low end of the calls estimates the undisturbed cost: over ten runs the
	// lower quartile repeated within 3-7 %, the median within 7-15 %, and the
	// minimum hangs on one lucky call. Spells longer than the run are taken
	// out by the speed probes: every timing is scaled to the box's nominal
	// speed (speed.go).
	res.BoxSpeed = speedFactor(speed)
	put := func(name string, xs []float64) {
		scaled := make([]float64, len(xs))
		for i, x := range xs {
			scaled[i] = x * res.BoxSpeed
		}
		s := summarize(scaled)
		m.setSpread(endToEnd, name, s.Q1, &s, "q1")
	}
	put("setup_s", setup)
	put("train_s", wall)
	put("cpu_s", cpu)
	m.set(endToEnd, "allocs_per_round", median(allocs))
	// Steady-state cost of one round: the full call minus the 1-round call
	// (listeners, handshake, precompute, first solve), over the other rounds.
	first := median(setupTrain)
	perRound := make([]float64, len(wall))
	for i, t := range wall {
		perRound[i] = (t - first) / float64(max(w.Rounds-1, 1)) * 1e3
	}
	put("round_ms", perRound)
	m.set(endToEnd, "peak_rss_mb", peakRSSMiB())
	m.set(endToEnd, "wire_bytes", float64(ref.bytes))
	m.set(endToEnd, "wire_msgs", float64(ref.msgs))
	m.set(endToEnd, "final_accuracy", ref.accuracy)
	m.set(endToEnd, "rounds_to_acc", float64(ref.roundsToAcc))
	return res, nil
}

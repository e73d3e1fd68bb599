package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

func smokeOptions() options {
	return options{Seed: 1, Repeats: 1, Smoke: true}
}

func requireClean(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%d of %d calls failed: %v", res.Failed, res.Attempted, res.Failures)
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s missing", d.Name)
		} else if v.Unit != d.Unit {
			t.Errorf("metric %s has unit %q, want %q", d.Name, v.Unit, d.Unit)
		}
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, the table lists %d", len(res.Metrics), len(defs))
	}
}

// Every workload's end-to-end pass runs at smoke shapes, passes its own
// determinism check and reports every end-to-end metric.
func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := measureEndToEnd(context.Background(), w.smoke(), smokeOptions())
			if err != nil {
				t.Fatal(err)
			}
			requireClean(t, res, endToEnd)
			if !(res.BoxSpeed > 0) {
				t.Errorf("box_speed = %g, want > 0", res.BoxSpeed)
			}
			for _, name := range []string{"setup_s", "train_s", "cpu_s", "peak_rss_mb", "allocs_per_round", "wire_bytes", "wire_msgs", "final_accuracy", "rounds_to_acc"} {
				if !(res.Metrics[name].Value > 0) {
					t.Errorf("%s = %g, want > 0", name, res.Metrics[name].Value)
				}
			}
		})
	}
}

// Every workload's traced pass runs at smoke shapes. measureLayers itself
// fails the run when the tap's census differs from History.Net, when the
// tapped run's model hash differs from the untapped run's, or when the
// secure path drifts from the local engine, so a clean result covers all
// three; the rest checks that each layer's metrics land on the workloads
// that exercise it and nowhere else.
func TestSmokeLayers(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := measureLayers(context.Background(), w.smoke(), smokeOptions())
			if err != nil {
				t.Fatal(err)
			}
			requireClean(t, res, perLayer)
			v := func(name string) float64 { return res.Metrics[name].Value }
			if v("transport.send_calls") <= 0 || v("transport.send_bytes") <= 0 {
				t.Errorf("tap recorded %g sends, %g bytes", v("transport.send_calls"), v("transport.send_bytes"))
			}
			if got := v("mapreduce.ctrl_msgs_per_round") > 0; got != w.Elastic {
				t.Errorf("ctrl_msgs_per_round = %g on a workload with Elastic=%v", v("mapreduce.ctrl_msgs_per_round"), w.Elastic)
			}
			if got := v("dfs.readat_mb_s") > 0; got != (w.Scheme == schemeHLStreamed) {
				t.Errorf("dfs.readat_mb_s = %g on scheme %s", v("dfs.readat_mb_s"), w.Scheme)
			}
			if got := v("qp.iters_cold") > 0; got != isHL(w.Scheme) {
				t.Errorf("qp.iters_cold = %g on scheme %s", v("qp.iters_cold"), w.Scheme)
			}
			if got := v("kernel.gram_ms") > 0; got != (w.Scheme == schemeHK || w.Scheme == schemeVK) {
				t.Errorf("kernel.gram_ms = %g on scheme %s", v("kernel.gram_ms"), w.Scheme)
			}
			if v("securesum.seed_msgs") != float64(w.M*(w.M-1)) {
				t.Errorf("securesum.seed_msgs = %g, want M(M-1) = %d", v("securesum.seed_msgs"), w.M*(w.M-1))
			}
		})
	}
}

func TestSummary(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	want := summary{N: 5, Min: 1, Q1: 2, Median: 3, Q3: 4, Max: 5}
	if s != want {
		t.Errorf("summarize = %+v, want %+v", s, want)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
	if got := s.spread(); got != 2.0/3 {
		t.Errorf("spread = %g, want (q3-q1)/median = %g", got, 2.0/3)
	}
	if (summary{}).spread() != 0 {
		t.Error("spread of an empty summary must be 0")
	}
}

// Timings are scaled by nominal over measured probe time, the measured time
// being the lower quartile of the run's probes.
func TestSpeedFactor(t *testing.T) {
	probes := []float64{5, 1, 4, 2, 3}
	for i := range probes {
		probes[i] *= speedRefSeconds
	}
	if got := speedFactor(probes); got != 0.5 {
		t.Errorf("speedFactor = %g, want nominal / lower quartile = 0.5", got)
	}
	if got := speedFactor(nil); got != 1 {
		t.Errorf("speedFactor without probes = %g, want 1", got)
	}
	if got := speedProbe(); !(got > 0) {
		t.Errorf("speedProbe = %g s, want > 0", got)
	}
}

// A percentile is reported only when at least ten samples lie beyond it.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n   int
		pct float64
	}{
		{5, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v, pct := tail(xs)
		if pct != c.pct {
			t.Errorf("n=%d: tail percentile p%g, want p%g", c.n, pct, c.pct)
		}
		if want := quantile(xs, c.pct/100); v != want {
			t.Errorf("n=%d: tail value %g, want %g", c.n, v, want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower10 := metricDef{Name: "train_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher1 := metricDef{Name: "final_accuracy", Unit: "ratio", Better: "higher", Bound: 0.01}
	tight := func(v float64) value {
		return value{Value: v, Spread: &summary{N: 5, Min: v * 0.99, Q1: v * 0.995, Median: v, Q3: v * 1.005, Max: v * 1.01}}
	}
	noisy := func(v float64) value {
		return value{Value: v, Spread: &summary{N: 5, Min: v * 0.8, Q1: v * 0.9, Median: v, Q3: v * 1.1, Max: v * 1.2}}
	}
	for _, c := range []struct {
		name     string
		d        metricDef
		old, new value
		want     verdict
	}{
		{"within the bound", lower10, tight(1), tight(1.05), same},
		{"slower beyond the bound", lower10, tight(1), tight(1.2), worse},
		{"faster beyond the bound", lower10, tight(1), tight(0.8), better},
		{"noisy and overlapping", lower10, noisy(1), noisy(1.2), unresolved},
		{"noisy but disjoint", lower10, noisy(1), noisy(2), worse},
		{"higher is better, fell", higher1, value{Value: 0.95}, value{Value: 0.90}, worse},
		{"higher is better, rose", higher1, value{Value: 0.90}, value{Value: 0.95}, better},
		{"no spread recorded", lower10, value{Value: 100}, value{Value: 100}, same},
	} {
		if got, _ := judge(c.d, c.old, c.new); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

// The result line the driver reads has exactly four keys, and each metric
// exactly a value and a unit.
func TestDriverLine(t *testing.T) {
	res := &result{Correct: true, Attempted: 3, Metrics: metrics{}}
	res.Metrics.set(endToEnd, "train_s", 1.5)
	raw, err := json.Marshal(res.driverLine())
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("result line keys %v, want %v", keys, want)
	}
	if want := `{"train_s":{"value":1.5,"unit":"s"}}`; string(got["metrics"]) != want {
		t.Errorf("metrics = %s, want %s", got["metrics"], want)
	}
}

// BENCHMARK.json must say what the tables in this package say.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the harness defaults to %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the harness has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d is %q (%q), the harness has %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the endToEnd table:\n%+v\n%+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table")
	}
}

package mapreduce

import (
	"context"
	"testing"
	"time"

	"github.com/ppml-go/ppml/internal/securesum"
	"github.com/ppml-go/ppml/internal/telemetry"
	"github.com/ppml-go/ppml/internal/transport"
)

// runCounted executes a never-converging averaging job over a fresh in-proc
// network with a fresh registry attached and returns the registry snapshot,
// the transport's own counters, and the rounds run.
func runCounted(t *testing.T, values [][]float64, rounds int) (*telemetry.Snapshot, transport.Stats, int) {
	t.Helper()
	job, red := newAveragingJob(values, rounds)
	red.tol = 0 // run the full budget so every count is deterministic
	reg := telemetry.NewRegistry()
	net := transport.NewInProc()
	defer net.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := RunDistributed(ctx, job, DriverOptions{
		Network: net, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != rounds {
		t.Fatalf("ran %d rounds, want %d", res.Iterations, rounds)
	}
	return reg.Snapshot(), net.Stats(), res.Iterations
}

// TestTelemetrySeededWiretapParity pins the telemetry counters to the wire
// ground truth of seeded masking: exactly m(m−1) seed messages once per
// session and m shares per round, and the transport counters must agree
// exactly with the network's own Stats.
func TestTelemetrySeededWiretapParity(t *testing.T) {
	values := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	const rounds = 4
	m := len(values)
	dim := len(values[0])
	snap, st, iters := runCounted(t, values, rounds)

	kind := func(k string) int64 {
		return snap.CounterTotal("ppml_securesum_msgs_total", telemetry.L("kind", k))
	}
	if got, want := kind("seed"), int64(m*(m-1)); got != want {
		t.Errorf("seed messages = %d, want %d", got, want)
	}
	if got, want := kind("share"), int64(m*iters); got != want {
		t.Errorf("share messages = %d, want %d", got, want)
	}
	bytes := func(k string) int64 {
		return snap.CounterTotal("ppml_securesum_bytes_total", telemetry.L("kind", k))
	}
	if got, want := bytes("seed"), int64(m*(m-1)*securesum.SeedSize); got != want {
		t.Errorf("seed bytes = %d, want %d", got, want)
	}
	if got, want := bytes("share"), int64(m*iters*8*dim); got != want {
		t.Errorf("share bytes = %d, want %d", got, want)
	}
	if got, want := snap.HistogramCount("ppml_securesum_handshake_seconds"), uint64(m); got != want {
		t.Errorf("handshake observations = %d, want %d (one per mapper)", got, want)
	}

	sent := telemetry.L("dir", "sent")
	if got := snap.CounterTotal(transport.MetricMsgs, sent); got != st.Messages {
		t.Errorf("transport telemetry messages = %d, net.Stats() = %d", got, st.Messages)
	}
	if got := snap.CounterTotal(transport.MetricBytes, sent); got != st.Bytes {
		t.Errorf("transport telemetry bytes = %d, net.Stats() = %d", got, st.Bytes)
	}

	if got := snap.CounterTotal("ppml_rounds_total"); got != int64(iters) {
		t.Errorf("ppml_rounds_total = %d, want %d", got, iters)
	}
	if fan, ok := snap.GaugeValue("ppml_mapper_fanout"); !ok || fan != float64(m) {
		t.Errorf("ppml_mapper_fanout = %v (ok=%v), want %d", fan, ok, m)
	}
	if got := snap.HistogramCount("ppml_round_seconds"); got != uint64(iters) {
		t.Errorf("round duration observations = %d, want %d", got, iters)
	}
}

// TestTelemetryLocalEngineRounds checks the in-process engine exports the
// same round metrics under the same definition as the distributed driver.
func TestTelemetryLocalEngineRounds(t *testing.T) {
	values := [][]float64{{2, 4}, {6, 8}}
	const rounds = 5
	job, red := newAveragingJob(values, rounds)
	red.tol = 0
	reg := telemetry.NewRegistry(telemetry.WithJournal(64))
	ctx := telemetry.NewContext(context.Background(), reg)
	res, err := RunLocalContext(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.CounterTotal("ppml_rounds_total"); got != int64(res.Iterations) {
		t.Errorf("ppml_rounds_total = %d, want %d", got, res.Iterations)
	}
	if fan, ok := snap.GaugeValue("ppml_mapper_fanout"); !ok || fan != float64(len(values)) {
		t.Errorf("ppml_mapper_fanout = %v (ok=%v), want %d", fan, ok, len(values))
	}
	// Every round fact has one record per kind: one histogram observation
	// and one round.start/round.end journal pair per completed round.
	if got := snap.HistogramCount("ppml_round_seconds"); got != rounds {
		t.Errorf("ppml_round_seconds count = %d, want %d", got, rounds)
	}
	starts, ends := 0, 0
	for _, e := range snap.Journal {
		switch e.Event {
		case "round.start":
			starts++
		case "round.end":
			ends++
		}
	}
	if starts != rounds || ends != rounds {
		t.Errorf("journal has %d round.start / %d round.end, want %d each", starts, ends, rounds)
	}
}

// BenchmarkRoundLoopTelemetry is the overhead guard for the instrumented
// round loop: the "live" case (registry and journal attached: counters,
// histograms and the round.start/round.end pair recorded every round) must
// stay within a few percent of "off" (no registry: every telemetry call is a
// nil-receiver no-op). Compare with
//
//	go test -run '^$' -bench BenchmarkRoundLoopTelemetry ./internal/mapreduce/
//
// The disabled path additionally allocates nothing — pinned by
// telemetry's TestDisabledZeroAlloc, not re-measured here.
func BenchmarkRoundLoopTelemetry(b *testing.B) {
	values := make([][]float64, 8)
	for i := range values {
		row := make([]float64, 16)
		for j := range row {
			row[j] = float64(i*16 + j)
		}
		values[i] = row
	}
	for _, bc := range []struct {
		name string
		reg  *telemetry.Registry
	}{
		{"off", nil},
		{"live", telemetry.NewRegistry(telemetry.WithJournal(256))},
	} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			ctx := context.Background()
			if bc.reg != nil {
				ctx = telemetry.NewContext(ctx, bc.reg)
			}
			for i := 0; i < b.N; i++ {
				job, red := newAveragingJob(values, 50)
				red.tol = 0
				if _, err := RunLocalContext(ctx, job); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

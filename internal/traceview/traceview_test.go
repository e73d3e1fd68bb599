package traceview

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/ppml-go/ppml/internal/mapreduce"
	"github.com/ppml-go/ppml/internal/telemetry"
)

var fixtureOnce struct {
	sync.Once
	tl    *Timeline
	flaky string
	err   error
}

// fixtureTimeline runs the chaos fixture once per test binary: the run takes
// real wall-clock (tail draws genuinely stall rounds), so the attribution,
// Chrome-output, and summary tests share it.
func fixtureTimeline(t *testing.T) (*Timeline, string) {
	t.Helper()
	fixtureOnce.Do(func() {
		raw, flaky, err := RunChaosFixture(context.Background(), 4, 40)
		if err != nil {
			fixtureOnce.err = err
			return
		}
		d, err := ReadDump(bytes.NewReader(raw))
		if err != nil {
			fixtureOnce.err = err
			return
		}
		tls := Merge(d)
		if len(tls) != 1 {
			fixtureOnce.err = fmt.Errorf("fixture produced %d timelines, want 1", len(tls))
			return
		}
		fixtureOnce.tl, fixtureOnce.flaky = tls[0], flaky
	})
	if fixtureOnce.err != nil {
		t.Fatal(fixtureOnce.err)
	}
	return fixtureOnce.tl, fixtureOnce.flaky
}

// TestChaosFixtureAttribution is the acceptance check for critical-path
// straggler attribution: in rounds visibly stalled by the flaky link (total
// at least half the tail latency, far above the ~1 ms healthy round), the
// critical-path node must be the injected straggler at least 90% of the
// time, and the tail must actually have fired on a meaningful fraction of
// rounds (p=0.25 over 40 rounds).
func TestChaosFixtureAttribution(t *testing.T) {
	tl, flaky := fixtureTimeline(t)
	if len(tl.Rounds) != 40 {
		t.Fatalf("timeline has %d rounds, want 40", len(tl.Rounds))
	}
	threshold := fixtureJitterTail / 2
	faulted, hits := 0, 0
	for _, r := range tl.Rounds {
		if r.Critical == nil {
			t.Fatalf("round %d has no critical path", r.Round)
		}
		if r.Critical.Total >= threshold {
			faulted++
			if r.Critical.Straggler == flaky {
				hits++
			}
		}
	}
	if faulted < 3 {
		t.Fatalf("only %d faulted rounds — the fixture's fault schedule is not firing", faulted)
	}
	if ratio := float64(hits) / float64(faulted); ratio < 0.9 {
		t.Errorf("straggler attributed in %d/%d faulted rounds (%.0f%%), want >= 90%%",
			hits, faulted, 100*ratio)
	}
	t.Logf("faulted rounds: %d/%d, attributed to %s: %d", faulted, len(tl.Rounds), flaky, hits)
}

// TestChaosFixtureSegments checks the segment split is sane: segments are
// non-negative, they sum to the total, and in faulted rounds the stall shows
// up outside the solve segment (the fixture's solve is trivial; the injected
// latency is on the wire path).
func TestChaosFixtureSegments(t *testing.T) {
	tl, flaky := fixtureTimeline(t)
	for _, r := range tl.Rounds {
		c := r.Critical
		if c == nil {
			continue
		}
		for _, seg := range []time.Duration{c.Total, c.Solve, c.Mask, c.Network, c.Wait} {
			if seg < 0 {
				t.Fatalf("round %d has a negative segment: %+v", r.Round, c)
			}
		}
		if got := c.Solve + c.Mask + c.Network + c.Wait; got > c.Total+time.Millisecond {
			t.Errorf("round %d segments sum to %v > total %v", r.Round, got, c.Total)
		}
		if c.Total >= fixtureJitterTail/2 && c.Straggler == flaky {
			if c.Solve > c.Total/2 {
				t.Errorf("round %d attributes the injected wire stall to solve: %+v", r.Round, c)
			}
		}
	}
	sum := Summarize(tl)
	if sum.Attributed != sum.Rounds {
		t.Errorf("summarized %d/%d rounds", sum.Attributed, sum.Rounds)
	}
	var total *SegmentSummary
	for i := range sum.Segments {
		if sum.Segments[i].Segment == "total" {
			total = &sum.Segments[i]
		}
	}
	if total == nil {
		t.Fatal("summary has no total segment")
	}
	if total.P99 < fixtureJitterTail/2 {
		t.Errorf("p99 round total %v does not show the %v tail", total.P99, fixtureJitterTail)
	}
	if total.P50 > fixtureJitterTail/2 {
		t.Errorf("p50 round total %v is tail-sized — healthy rounds should dominate", total.P50)
	}
}

// TestChromeTraceOutput checks the Chrome trace-event document is valid
// JSON of the expected shape: a traceEvents array whose entries all carry a
// phase, with process-name metadata for every node, at least one complete
// slice per round, and the synthetic critical-path slices.
func TestChromeTraceOutput(t *testing.T) {
	tl, flaky := fixtureTimeline(t)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tl); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	names := map[string]bool{}
	phases := map[string]int{}
	critical := 0
	for _, e := range doc.TraceEvents {
		ph, ok := e["ph"].(string)
		if !ok || ph == "" {
			t.Fatalf("event without phase: %v", e)
		}
		phases[ph]++
		if e["name"] == "process_name" {
			if args, ok := e["args"].(map[string]any); ok {
				if n, ok := args["name"].(string); ok {
					names[n] = true
				}
			}
		}
		if e["name"] == "critical-path" {
			critical++
			if _, ok := e["dur"].(float64); !ok {
				t.Fatalf("critical-path slice without dur: %v", e)
			}
		}
	}
	for _, n := range []string{"reducer", flaky} {
		if !names[n] {
			t.Errorf("no process_name metadata for %q", n)
		}
	}
	if phases["X"] < len(tl.Rounds) {
		t.Errorf("%d complete slices for %d rounds", phases["X"], len(tl.Rounds))
	}
	if critical != len(tl.Rounds) {
		t.Errorf("%d critical-path slices for %d rounds", critical, len(tl.Rounds))
	}
}

// TestMergeDedupAndSplitDumps checks per-node dumps merge to the same
// timeline as the combined dump: splitting events by node and overlapping
// the reducer's dump twice must change nothing (dedup by node+seq).
func TestMergeDedupAndSplitDumps(t *testing.T) {
	raw, _, err := RunChaosFixture(context.Background(), 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ReadDump(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	whole := Merge(d)
	byNode := map[string]*Dump{}
	for _, e := range d.Events {
		nd, ok := byNode[e.Node]
		if !ok {
			nd = &Dump{}
			byNode[e.Node] = nd
		}
		nd.Events = append(nd.Events, e)
	}
	parts := []*Dump{byNode["reducer"]} // duplicated on purpose
	for _, nd := range byNode {
		parts = append(parts, nd)
	}
	split := Merge(parts...)
	if len(whole) != 1 || len(split) != 1 {
		t.Fatalf("timelines: whole %d, split %d, want 1 each", len(whole), len(split))
	}
	if w, s := whole[0], split[0]; len(w.Rounds) != len(s.Rounds) {
		t.Fatalf("whole has %d rounds, split-merge %d", len(w.Rounds), len(s.Rounds))
	} else {
		for i := range w.Rounds {
			if len(w.Rounds[i].Events) != len(s.Rounds[i].Events) {
				t.Errorf("round %d: whole %d events, split-merge %d (dedup broken?)",
					w.Rounds[i].Round, len(w.Rounds[i].Events), len(s.Rounds[i].Events))
			}
		}
	}
}

// TestWriteSummaryRenders smoke-checks the text report.
func TestWriteSummaryRenders(t *testing.T) {
	tl, flaky := fixtureTimeline(t)
	var buf bytes.Buffer
	if err := WriteSummary(&buf, tl); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"straggler", "p99", flaky} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestMergeLocalJournal checks a RunLocalContext job's journal reads like a
// distributed one: with no traced session the events form the single
// zero-trace timeline, one Round per iteration, each bounded by the
// reducer's round.start/round.end pair.
func TestMergeLocalJournal(t *testing.T) {
	const m, iters = 3, 4
	mappers := make([]mapreduce.IterativeMapper, m)
	for i := range mappers {
		mappers[i] = &fixtureMapper{value: []float64{float64(i + 1)}}
	}
	reg := telemetry.NewRegistry(telemetry.WithJournal(64))
	if _, err := mapreduce.RunLocalContext(telemetry.NewContext(context.Background(), reg), mapreduce.IterativeJob{
		Mappers:         mappers,
		Reducer:         &fixtureReducer{m: m},
		InitialState:    make([]float64, 1),
		ContributionDim: 1,
		MaxIterations:   iters,
	}); err != nil {
		t.Fatal(err)
	}
	tls := Merge(&Dump{Events: reg.Journal().Snapshot()})
	if len(tls) != 1 {
		t.Fatalf("got %d timelines, want 1", len(tls))
	}
	if !tls[0].Trace.IsZero() {
		t.Fatalf("timeline trace = %v, want the zero trace", tls[0].Trace)
	}
	if len(tls[0].Rounds) != iters {
		t.Fatalf("timeline has %d rounds, want %d", len(tls[0].Rounds), iters)
	}
	for i, r := range tls[0].Rounds {
		first, last := r.Events[0], r.Events[len(r.Events)-1]
		if r.Round != int32(i) || len(r.Events) != 2 ||
			first.Event != "round.start" || !r.Start.Equal(first.Time) ||
			last.Event != "round.end" || !r.End.Equal(last.Time) {
			t.Errorf("round %d: %d events, bounds %v..%v, want its round.start/round.end pair", r.Round, len(r.Events), r.Start, r.End)
		}
	}
}

// TestChromeTraceProbeSlice checks the reducer's accuracy probe is drawn as
// its own slice: a probe.start/probe.end pair inside a round becomes one
// complete ("X") event named "probe" with the pair's duration.
func TestChromeTraceProbeSlice(t *testing.T) {
	t0 := time.Unix(1700000000, 0)
	at := func(ms int, event string) telemetry.JournalEvent {
		return telemetry.JournalEvent{
			Seq: uint64(ms), Time: t0.Add(time.Duration(ms) * time.Millisecond),
			Node: "reducer", Event: event, Round: 0,
		}
	}
	tls := Merge(&Dump{Events: []telemetry.JournalEvent{
		at(0, "round.start"), at(2, "consensus.round"), at(3, "probe.start"), at(8, "probe.end"), at(9, "round.end"),
	}})
	if len(tls) != 1 {
		t.Fatalf("got %d timelines, want 1", len(tls))
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tls[0]); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			Dur   float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, e := range doc.TraceEvents {
		if e.Name == "probe" {
			if e.Phase != "X" || e.Dur != 5000 {
				t.Errorf("probe slice: phase %q, dur %v us, want X and 5000", e.Phase, e.Dur)
			}
			return
		}
	}
	t.Errorf("no probe slice in %s", buf.String())
}

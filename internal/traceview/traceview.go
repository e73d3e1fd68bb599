// Package traceview merges flight-recorder journal dumps into cross-node
// round timelines and attributes each round's critical path.
//
// The input is one or more journal dumps in the JSON shape written by
// telemetry.Registry.WriteJournal (served at /debug/ppml/journal, auto-dumped
// on driver abort). A single-process simulation produces one dump holding
// every node's events; a real deployment produces one dump per node, and the
// merge joins them by TraceID — the 16-byte session identity the reducer
// mints and every frame echoes.
//
// Critical-path attribution is reducer-centric: a consensus round ends when
// the LAST share lands at the reducer, so the mapper behind that share is the
// round's critical-path node (the straggler). Its round time is split into
// the segments the flight recorder can see:
//
//	solve   — the straggler's local subproblem time (solve.start→solve.end)
//	mask    — its mask/share derivation time (mask.start→mask.end)
//	network — its share's flight time (mapper net.send → reducer net.recv,
//	          which includes reducer-side queueing: the moment the reducer
//	          actually folded it is the moment that gates the round)
//	wait    — everything else: broadcast delivery, ready phase, scheduling
//
// Timestamps are each node's local clock; merged segments that span nodes
// (network) are only as accurate as the clocks are aligned. The bundled
// chaos fixture and the single-process drivers share one clock, so there the
// split is exact.
package traceview

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/ppml-go/ppml/internal/telemetry"
)

// Wire kinds that carry a round share to the reducer. Pinned wire constants
// (mapreduce/wire.go, securesum/protocol.go); declared here so the viewer
// stays decoupled from the protocol packages it post-processes.
const (
	kindMaskedShare = "securesum.share"
	kindPlainShare  = "mr.plainshare"
	kindStop        = "mr.stop"
)

// setupRound tags pre-round handshake events (securesum.SetupRound).
const setupRound = -1

func isShareKind(kind string) bool {
	switch kind {
	case kindMaskedShare, kindPlainShare:
		return true
	}
	return false
}

// Dump is one parsed journal dump.
type Dump struct {
	RunInfo *telemetry.RunInfo       `json:"run_info,omitempty"`
	Total   uint64                   `json:"total"`
	Events  []telemetry.JournalEvent `json:"events"`
}

// ReadDump parses one journal dump document.
func ReadDump(r io.Reader) (*Dump, error) {
	var d Dump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("traceview: parse dump: %w", err)
	}
	return &d, nil
}

// CriticalPath is one round's attribution: the mapper whose share gated the
// round and the segment split of its time.
type CriticalPath struct {
	// Straggler is the critical-path node — the mapper whose share was the
	// last the reducer folded.
	Straggler string `json:"straggler"`
	// Total is round start (reducer round.start) to the gating share's
	// arrival at the reducer.
	Total   time.Duration `json:"total"`
	Solve   time.Duration `json:"solve"`
	Mask    time.Duration `json:"mask"`
	Network time.Duration `json:"network"`
	Wait    time.Duration `json:"wait"`
}

// Round is one consensus round's merged view.
type Round struct {
	Round int32 `json:"round"`
	// Start is the reducer's round.start (or the round's earliest event).
	Start time.Time `json:"start"`
	// End is the reducer's round.end (or the round's latest event).
	End      time.Time                `json:"end"`
	Events   []telemetry.JournalEvent `json:"-"`
	Critical *CriticalPath            `json:"critical,omitempty"`
}

// Timeline is one traced session: every journaled event that carries its
// TraceID, grouped by round, in cross-node emission order.
type Timeline struct {
	Trace telemetry.TraceID `json:"trace"`
	// Nodes are the emitting parties seen, sorted.
	Nodes []string `json:"nodes"`
	// Setup holds pre-round events (seed handshake, round -1) and the
	// job's shutdown traffic (stop messages, stamped one round past the
	// last consensus round — they are a teardown barrier, not a round).
	Setup  []telemetry.JournalEvent `json:"-"`
	Rounds []Round                  `json:"rounds"`
}

// Merge joins journal dumps into per-trace timelines. Events are deduplicated
// by (node, seq) — overlapping dumps of the same node's journal are safe —
// and ordered by timestamp. Events with a zero TraceID (local telemetry
// outside any traced session) are grouped under the zero-trace timeline only
// if no traced session is present; otherwise they are folded into the single
// traced session, which is the common one-job-per-process case.
func Merge(dumps ...*Dump) []*Timeline {
	type evKey struct {
		node string
		seq  uint64
	}
	seen := make(map[evKey]bool)
	byTrace := make(map[telemetry.TraceID][]telemetry.JournalEvent)
	var traced []telemetry.TraceID
	var untraced []telemetry.JournalEvent
	for _, d := range dumps {
		for _, e := range d.Events {
			k := evKey{e.Node, e.Seq}
			if seen[k] {
				continue
			}
			seen[k] = true
			if e.Trace.IsZero() {
				untraced = append(untraced, e)
				continue
			}
			if _, ok := byTrace[e.Trace]; !ok {
				traced = append(traced, e.Trace)
			}
			byTrace[e.Trace] = append(byTrace[e.Trace], e)
		}
	}
	if len(traced) == 1 {
		// One traced session: untraced events (consensus-layer residuals and
		// the like, emitted below the layer that knows the trace) belong to it.
		byTrace[traced[0]] = append(byTrace[traced[0]], untraced...)
	} else if len(traced) == 0 && len(untraced) > 0 {
		byTrace[telemetry.TraceID{}] = untraced
		traced = append(traced, telemetry.TraceID{})
	}

	var out []*Timeline
	for _, tr := range traced {
		out = append(out, buildTimeline(tr, byTrace[tr]))
	}
	sort.Slice(out, func(i, j int) bool {
		ti, tj := firstTime(out[i]), firstTime(out[j])
		return ti.Before(tj)
	})
	return out
}

func firstTime(t *Timeline) time.Time {
	if len(t.Setup) > 0 {
		return t.Setup[0].Time
	}
	if len(t.Rounds) > 0 && len(t.Rounds[0].Events) > 0 {
		return t.Rounds[0].Events[0].Time
	}
	return time.Time{}
}

func buildTimeline(trace telemetry.TraceID, events []telemetry.JournalEvent) *Timeline {
	sort.Slice(events, func(i, j int) bool {
		if !events[i].Time.Equal(events[j].Time) {
			return events[i].Time.Before(events[j].Time)
		}
		return events[i].Seq < events[j].Seq
	})
	tl := &Timeline{Trace: trace}
	nodes := make(map[string]bool)
	rounds := make(map[int32]*Round)
	var order []int32
	for _, e := range events {
		nodes[e.Node] = true
		if e.Round <= setupRound || e.Kind == kindStop {
			tl.Setup = append(tl.Setup, e)
			continue
		}
		r, ok := rounds[e.Round]
		if !ok {
			r = &Round{Round: e.Round}
			rounds[e.Round] = r
			order = append(order, e.Round)
		}
		r.Events = append(r.Events, e)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, n := range order {
		r := rounds[n]
		r.Start, r.End = roundBounds(r.Events)
		r.Critical = attribute(r)
		tl.Rounds = append(tl.Rounds, *r)
	}
	for n := range nodes {
		tl.Nodes = append(tl.Nodes, n)
	}
	sort.Strings(tl.Nodes)
	return tl
}

// roundBounds prefers the reducer's round.start/round.end stamps and falls
// back to the round's event envelope.
func roundBounds(events []telemetry.JournalEvent) (start, end time.Time) {
	start, end = events[0].Time, events[0].Time
	for _, e := range events {
		if e.Time.Before(start) {
			start = e.Time
		}
		if e.Time.After(end) {
			end = e.Time
		}
	}
	for _, e := range events {
		if e.Event == "round.start" {
			start = e.Time
		}
		if e.Event == "round.end" {
			end = e.Time
		}
	}
	return start, end
}

// attribute computes the round's critical path, or nil when the round has no
// share arrivals (aborted or trimmed by the ring).
func attribute(r *Round) *CriticalPath {
	// The gate: the last share the reducer received. net.recv at the reducer
	// covers every engine and aggregation mode uniformly.
	var gate *telemetry.JournalEvent
	for i := range r.Events {
		e := &r.Events[i]
		if e.Event == "net.recv" && isShareKind(e.Kind) && e.Node == "reducer" {
			if gate == nil || e.Time.After(gate.Time) {
				gate = e
			}
		}
	}
	if gate == nil {
		return nil
	}
	cp := &CriticalPath{Straggler: gate.Peer, Total: gate.Time.Sub(r.Start)}
	if cp.Total < 0 {
		cp.Total = 0
	}
	// The straggler's own segments within the round. Durations ride on the
	// *.end events (Value, in seconds); no solve events under this round
	// number means solve time zero, and the difference lands in wait.
	var lastSend *telemetry.JournalEvent
	for i := range r.Events {
		e := &r.Events[i]
		if e.Node != cp.Straggler {
			continue
		}
		switch e.Event {
		case "solve.end":
			cp.Solve += time.Duration(e.Value * float64(time.Second))
		case "mask.end":
			cp.Mask += time.Duration(e.Value * float64(time.Second))
		case "net.send":
			if isShareKind(e.Kind) && (lastSend == nil || e.Time.After(lastSend.Time)) {
				lastSend = e
			}
		}
	}
	if lastSend != nil && gate.Time.After(lastSend.Time) {
		cp.Network = gate.Time.Sub(lastSend.Time)
	}
	cp.Wait = cp.Total - cp.Solve - cp.Mask - cp.Network
	if cp.Wait < 0 {
		cp.Wait = 0
	}
	return cp
}

// SegmentSummary is the distribution of one critical-path segment across a
// timeline's rounds.
type SegmentSummary struct {
	Segment string        `json:"segment"`
	P50     time.Duration `json:"p50"`
	P99     time.Duration `json:"p99"`
	Max     time.Duration `json:"max"`
}

// Summary aggregates a timeline: per-straggler round counts and p50/p99 per
// critical-path segment.
type Summary struct {
	Rounds int `json:"rounds"`
	// Attributed counts rounds with a computed critical path.
	Attributed int `json:"attributed"`
	// Stragglers maps node → rounds it was the critical-path node.
	Stragglers map[string]int   `json:"stragglers"`
	Segments   []SegmentSummary `json:"segments"`
}

// Summarize computes the timeline's summary.
func Summarize(tl *Timeline) *Summary {
	s := &Summary{Rounds: len(tl.Rounds), Stragglers: make(map[string]int)}
	segs := map[string][]time.Duration{}
	for _, r := range tl.Rounds {
		if r.Critical == nil {
			continue
		}
		s.Attributed++
		s.Stragglers[r.Critical.Straggler]++
		segs["total"] = append(segs["total"], r.Critical.Total)
		segs["solve"] = append(segs["solve"], r.Critical.Solve)
		segs["mask"] = append(segs["mask"], r.Critical.Mask)
		segs["network"] = append(segs["network"], r.Critical.Network)
		segs["wait"] = append(segs["wait"], r.Critical.Wait)
	}
	for _, name := range []string{"total", "solve", "mask", "network", "wait"} {
		ds := segs[name]
		if len(ds) == 0 {
			continue
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		s.Segments = append(s.Segments, SegmentSummary{
			Segment: name,
			P50:     quantile(ds, 0.50),
			P99:     quantile(ds, 0.99),
			Max:     ds[len(ds)-1],
		})
	}
	return s
}

// quantile returns the q-quantile of sorted durations (nearest-rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)-1) + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// WriteSummary renders the per-round critical paths and the segment summary
// as a fixed-width text report.
func WriteSummary(w io.Writer, tl *Timeline) error {
	sum := Summarize(tl)
	if _, err := fmt.Fprintf(w, "trace %s: %d nodes, %d rounds (%d attributed)\n",
		tl.Trace, len(tl.Nodes), sum.Rounds, sum.Attributed); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-6s %-10s %10s %10s %10s %10s %10s\n",
		"round", "straggler", "total", "solve", "mask", "network", "wait")
	for _, r := range tl.Rounds {
		if r.Critical == nil {
			fmt.Fprintf(w, "%-6d %-10s\n", r.Round, "-")
			continue
		}
		c := r.Critical
		fmt.Fprintf(w, "%-6d %-10s %10s %10s %10s %10s %10s\n",
			r.Round, c.Straggler, rd(c.Total), rd(c.Solve), rd(c.Mask), rd(c.Network), rd(c.Wait))
	}
	fmt.Fprintf(w, "\ncritical-path segments across %d rounds:\n", sum.Attributed)
	fmt.Fprintf(w, "%-8s %10s %10s %10s\n", "segment", "p50", "p99", "max")
	for _, seg := range sum.Segments {
		fmt.Fprintf(w, "%-8s %10s %10s %10s\n", seg.Segment, rd(seg.P50), rd(seg.P99), rd(seg.Max))
	}
	fmt.Fprintf(w, "\nstraggler rounds by node:\n")
	nodes := make([]string, 0, len(sum.Stragglers))
	for n := range sum.Stragglers {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		fmt.Fprintf(w, "%-10s %d\n", n, sum.Stragglers[n])
	}
	return nil
}

// rd rounds a duration for display.
func rd(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }

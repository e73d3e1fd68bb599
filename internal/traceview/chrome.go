package traceview

// Chrome trace-event output: the timeline rendered as a JSON document the
// Perfetto UI (ui.perfetto.dev) and chrome://tracing load directly. One
// process per node, complete ("X") slices for phases with a start/end pair,
// instant ("i") events for point occurrences, and metadata ("M") events
// naming the node tracks. Timestamps are microseconds from the timeline's
// first event.

import (
	"encoding/json"
	"io"
	"sort"
	"time"

	"github.com/ppml-go/ppml/internal/telemetry"
)

// chromeEvent is one entry of the traceEvents array.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeDoc struct {
	TraceEvents []chromeEvent  `json:"traceEvents"`
	Metadata    map[string]any `json:"otherData,omitempty"`
}

// phasePairs maps *.start events to their *.end partner for slice building.
var phasePairs = map[string]string{
	"round.start": "round.end",
	"solve.start": "solve.end",
	"mask.start":  "mask.end",
	"probe.start": "probe.end",
}

// phaseEnds is the set of *.end events that close a phasePairs slice.
var phaseEnds = func() map[string]bool {
	ends := make(map[string]bool, len(phasePairs))
	for _, end := range phasePairs {
		ends[end] = true
	}
	return ends
}()

// WriteChromeTrace renders the timeline as Chrome trace-event JSON.
func WriteChromeTrace(w io.Writer, tl *Timeline) error {
	doc := chromeDoc{
		TraceEvents: []chromeEvent{},
		Metadata:    map[string]any{"trace": tl.Trace.String()},
	}
	pidOf := make(map[string]int, len(tl.Nodes))
	for i, n := range tl.Nodes {
		pid := i + 1
		pidOf[n] = pid
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "process_name", Phase: "M", PID: pid, TID: 0,
			Args: map[string]any{"name": n},
		})
	}
	var base time.Time
	if t := firstTime(tl); !t.IsZero() {
		base = t
	}
	us := func(t time.Time) float64 { return float64(t.Sub(base)) / float64(time.Microsecond) }

	emit := func(events []telemetry.JournalEvent, critical *CriticalPath, round int32) {
		// Pair *.start with the next *.end of the same node+event family: the
		// phases on one node are sequential.
		type openKey struct{ node, end string }
		open := map[openKey]telemetry.JournalEvent{}
		for _, e := range events {
			pid := pidOf[e.Node]
			switch {
			case phasePairs[e.Event] != "":
				open[openKey{e.Node, phasePairs[e.Event]}] = e
			case phaseEnds[e.Event]:
				k := openKey{e.Node, e.Event}
				if s, ok := open[k]; ok {
					delete(open, k)
					ce := chromeEvent{
						Name: e.Event[:len(e.Event)-len(".end")], Cat: "phase", Phase: "X",
						TS: us(s.Time), Dur: us(e.Time) - us(s.Time), PID: pid, TID: 0,
						Args: map[string]any{"round": round},
					}
					if critical != nil && e.Node == critical.Straggler {
						ce.Args["critical_path"] = true
					}
					doc.TraceEvents = append(doc.TraceEvents, ce)
				}
			case e.Event == "net.send" || e.Event == "net.recv":
				doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
					Name: e.Event + " " + e.Kind, Cat: "net", Phase: "i",
					TS: us(e.Time), PID: pid, TID: 0, Scope: "t",
					Args: map[string]any{"round": round, "peer": e.Peer, "bytes": e.Bytes},
				})
			default:
				doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
					Name: e.Event, Cat: "lifecycle", Phase: "i",
					TS: us(e.Time), PID: pid, TID: 0, Scope: "t",
					Args: map[string]any{"round": round, "peer": e.Peer, "value": e.Value},
				})
			}
		}
	}
	emit(tl.Setup, nil, setupRound)
	for _, r := range tl.Rounds {
		emit(r.Events, r.Critical, r.Round)
		if c := r.Critical; c != nil {
			// One synthetic critical-path slice on the straggler's track.
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: "critical-path", Cat: "critical", Phase: "X",
				TS: us(r.Start), Dur: float64(c.Total) / float64(time.Microsecond),
				PID: pidOf[c.Straggler], TID: 1,
				Args: map[string]any{
					"round":      r.Round,
					"straggler":  c.Straggler,
					"solve_us":   float64(c.Solve) / float64(time.Microsecond),
					"mask_us":    float64(c.Mask) / float64(time.Microsecond),
					"network_us": float64(c.Network) / float64(time.Microsecond),
					"wait_us":    float64(c.Wait) / float64(time.Microsecond),
				},
			})
		}
	}
	sort.SliceStable(doc.TraceEvents, func(i, j int) bool {
		return doc.TraceEvents[i].TS < doc.TraceEvents[j].TS
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

package telemetry

// Journal is the flight recorder: a bounded, lock-striped ring of typed,
// scalar-only round-lifecycle events. The protocol packages emit events for
// every interesting state transition — ready sent/received, roster declared,
// demotion/rejoin, window re-arm, solve and mask-exchange phases, per-kind
// sends and receives with byte counts — and the ring keeps the most recent window of them per node. ppml-trace merges
// per-node dumps by TraceID and round into cross-node timelines
// (DESIGN.md §16).
//
// Privacy stance: an event is a fixed tuple of scalars — node/peer names,
// an event label, a message kind, a round counter, a byte count, and one
// float64 value (a duration, a residual or a roster size). There is no
// field that can carry a share, a mask, a seed, or an iterate; secretflow's
// telemetry rule additionally rejects any vector or vector-derived string
// reaching Emit in the protocol packages. Everything recorded is
// coordination metadata the semi-honest reducer's view already contains.
//
// The disabled path follows the PR 5 nil-registry contract: a nil *Journal
// no-ops, and the enabled path is allocation-free (events are written into
// preallocated ring slots).

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// JournalEvent is one recorded round-lifecycle event.
type JournalEvent struct {
	// Seq is a per-journal monotonic sequence number, so merged dumps can
	// recover emission order within one node even when timestamps tie.
	Seq uint64 `json:"seq"`
	// Time is the wall-clock emission time.
	Time time.Time `json:"time"`
	// Node is the emitting party ("reducer", "mapper-3").
	Node string `json:"node"`
	// Event is the lifecycle label ("ready.recv", "solve.start", ...).
	Event string `json:"event"`
	// Trace is the session's distributed trace identity (zero when the
	// event is outside any traced session).
	Trace TraceID `json:"trace"`
	// Round is the consensus round the event belongs to (-1 for setup).
	Round int32 `json:"round"`
	// Peer is the counterparty node, when the event involves one.
	Peer string `json:"peer,omitempty"`
	// Kind is the wire message kind for send/recv events.
	Kind string `json:"kind,omitempty"`
	// Bytes is the payload size for send/recv events.
	Bytes int64 `json:"bytes,omitempty"`
	// Value is the event's one scalar measurement: a duration in seconds
	// for *.end events, a count for rosters, the residual for
	// consensus.round; ready events carry none.
	Value float64 `json:"value,omitempty"`
}

// journalStripes spreads emission over independently locked shards, same
// rationale as Histogram's stripes. Power of two so selection is a mask.
const journalStripes = 8

type journalStripe struct {
	mu   sync.Mutex
	buf  []JournalEvent
	next int
	// Pad to a cache line so adjacent stripes do not false-share.
	_ [40]byte
}

// Journal is the bounded event ring. A nil *Journal is the sanctioned
// no-op; construct live ones with NewJournal (usually via the registry's
// WithJournal option or the PPML_JOURNAL_RING env).
type Journal struct {
	seq     atomic.Uint64 // global emission order
	next    atomic.Uint32 // round-robin stripe selector
	total   atomic.Uint64 // lifetime emitted events
	stripes [journalStripes]journalStripe
}

// NewJournal returns a live journal holding the most recent capacity events
// (rounded up to a multiple of the stripe count; capacities < the stripe
// count are raised to it).
func NewJournal(capacity int) *Journal {
	per := (capacity + journalStripes - 1) / journalStripes
	if per < 1 {
		per = 1
	}
	j := &Journal{}
	for i := range j.stripes {
		j.stripes[i].buf = make([]JournalEvent, per)
	}
	return j
}

// Capacity returns the total event capacity of the ring. Nil-safe.
func (j *Journal) Capacity() int {
	if j == nil {
		return 0
	}
	return len(j.stripes[0].buf) * journalStripes
}

// Total returns the lifetime number of emitted events. Nil-safe.
func (j *Journal) Total() uint64 {
	if j == nil {
		return 0
	}
	return j.total.Load()
}

// Emit records one event. The parameter list is deliberately flat scalars —
// not an event struct — so secretflow's telemetry rule sees every argument
// at the call site. Pass zero values for fields the event does not use.
// Nil-safe and allocation-free when live.
func (j *Journal) Emit(node, event string, trace TraceID, round int32, peer, kind string, bytes int64, value float64) {
	if j == nil {
		return
	}
	seq := j.seq.Add(1)
	s := &j.stripes[j.next.Add(1)&(journalStripes-1)]
	s.mu.Lock()
	s.buf[s.next] = JournalEvent{
		Seq:   seq,
		Time:  time.Now(),
		Node:  node,
		Event: event,
		Trace: trace,
		Round: round,
		Peer:  peer,
		Kind:  kind,
		Bytes: bytes,
		Value: value,
	}
	s.next++
	if s.next == len(s.buf) {
		s.next = 0
	}
	s.mu.Unlock()
	j.total.Add(1)
}

// Snapshot returns the buffered events in emission order (ascending Seq).
// Nil-safe.
func (j *Journal) Snapshot() []JournalEvent {
	if j == nil {
		return nil
	}
	out := make([]JournalEvent, 0, j.Capacity())
	for i := range j.stripes {
		s := &j.stripes[i]
		s.mu.Lock()
		for k := range s.buf {
			if s.buf[k].Seq != 0 {
				out = append(out, s.buf[k])
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// journalDump is the JSON document served by /debug/ppml/journal and
// written by AutoDumpJournal; ppml-trace consumes exactly this shape.
type journalDump struct {
	RunInfo *RunInfo       `json:"run_info,omitempty"`
	Total   uint64         `json:"total"`
	Events  []JournalEvent `json:"events"`
}

// WriteJournal writes the registry's journal as indented JSON: run
// attribution, the lifetime event total, and the buffered events in
// emission order. A registry without a journal writes an empty dump.
// Nil-safe.
func (r *Registry) WriteJournal(w io.Writer) error {
	var d journalDump
	if r != nil {
		d.RunInfo = r.RunInfo()
		j := r.Journal()
		d.Total = j.Total()
		d.Events = j.Snapshot()
	}
	if d.Events == nil {
		d.Events = []JournalEvent{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}

// journalDumpEnv names the directory the driver dumps the journal into when
// a job aborts; unset means no dump. The file is named journal-<tag>.json.
const journalDumpEnv = "PPML_JOURNAL_DUMP"

// AutoDumpJournal writes the registry's journal to
// $PPML_JOURNAL_DUMP/journal-<tag>.json, the post-mortem flight-recorder
// dump the driver triggers on abort. It is a no-op unless the env var is
// set and the registry has a live journal; failures are returned, never
// fatal. Nil-safe.
func (r *Registry) AutoDumpJournal(tag string) (string, error) {
	dir := os.Getenv(journalDumpEnv)
	if dir == "" || r == nil || r.Journal() == nil {
		return "", nil
	}
	path := filepath.Join(dir, fmt.Sprintf("journal-%s.json", tag))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := r.WriteJournal(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

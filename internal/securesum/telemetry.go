package securesum

import (
	"time"

	"github.com/ppml-go/ppml/internal/telemetry"
)

// Telemetry metric families exported by the secure-summation protocol. The
// kind label distinguishes the two wire message types — which is exactly the
// traffic-shape invariant the wiretap tests assert: m(m−1) seeds per session,
// m shares per round.
const (
	metricMsgs      = "ppml_securesum_msgs_total"
	metricBytes     = "ppml_securesum_bytes_total"
	metricHandshake = "ppml_securesum_handshake_seconds"
)

// Telemetry is the protocol's prepared metric sink: message and byte
// counters by kind, plus the seed-handshake latency histogram. A nil
// *Telemetry no-ops on every method, so protocol code records
// unconditionally. Only counts and sizes ever pass through here — never
// payloads; secretflow's telemetry rule enforces that shape at the call
// sites.
type Telemetry struct {
	seedMsgs, seedBytes   *telemetry.Counter
	shareMsgs, shareBytes *telemetry.Counter
	handshake             *telemetry.Histogram
	journal               *telemetry.Journal
}

// NewTelemetry prepares the protocol's series on r. A nil registry yields a
// nil (no-op) sink.
func NewTelemetry(r *telemetry.Registry) *Telemetry {
	if r == nil {
		return nil
	}
	kindL := func(kind string) telemetry.Label { return telemetry.L("kind", kind) }
	return &Telemetry{
		seedMsgs:   r.Counter(metricMsgs, kindL("seed")),
		seedBytes:  r.Counter(metricBytes, kindL("seed")),
		shareMsgs:  r.Counter(metricMsgs, kindL("share")),
		shareBytes: r.Counter(metricBytes, kindL("share")),
		handshake:  r.Histogram(metricHandshake, telemetry.DurationBuckets),
		journal:    r.Journal(),
	}
}

// RecordSeed counts one sent KindSeed message of the given payload size.
func (t *Telemetry) RecordSeed(bytes int) {
	if t == nil {
		return
	}
	t.seedMsgs.Inc()
	t.seedBytes.Add(int64(bytes))
}

// RecordShare counts one sent KindShare message of the given payload size.
func (t *Telemetry) RecordShare(bytes int) {
	if t == nil {
		return
	}
	t.shareMsgs.Inc()
	t.shareBytes.Add(int64(bytes))
}

// ObserveHandshake records one completed seed-exchange duration.
func (t *Telemetry) ObserveHandshake(d time.Duration) {
	if t == nil {
		return
	}
	t.handshake.Observe(d.Seconds())
}

// The journal emitters below record mask-exchange lifecycle events in the
// flight recorder. One Telemetry is shared by every mapper of a job, so the
// emitting node's name is a per-call argument. All arguments are public
// coordination metadata: node names, the trace identity, round counters,
// byte counts, durations.

// JournalHandshakeDone records one completed seed exchange with its
// duration in seconds.
func (t *Telemetry) JournalHandshakeDone(node string, trace telemetry.TraceID, d time.Duration) {
	if t == nil {
		return
	}
	t.journal.Emit(node, "handshake.done", trace, SetupRound, "", "", 0, d.Seconds())
}

// JournalMaskPhase records the start or end of one round's mask derivation
// (event "mask.start" / "mask.end"; the end event carries the phase
// duration in seconds).
func (t *Telemetry) JournalMaskPhase(node, event string, trace telemetry.TraceID, round int32, d time.Duration) {
	if t == nil {
		return
	}
	t.journal.Emit(node, event, trace, round, "", "", 0, d.Seconds())
}

package securesum

import (
	"time"

	"github.com/ppml-go/ppml/internal/telemetry"
)

// Telemetry metric families exported by the secure-summation protocol.
// Every series carries the mask mode, so a mixed experiment (seeded vs
// per-round) separates cleanly, and the kind label distinguishes the three
// wire message types — which is exactly the traffic-shape invariant the
// wiretap tests assert (seeded mode: m shares per round, zero masks).
const (
	metricMsgs      = "ppml_securesum_msgs_total"
	metricBytes     = "ppml_securesum_bytes_total"
	metricHandshake = "ppml_securesum_handshake_seconds"
)

// Telemetry is the protocol's prepared metric sink: message and byte
// counters by kind and mask mode, plus the seed-handshake latency
// histogram. A nil *Telemetry no-ops on every method, so protocol code
// records unconditionally. Only counts and sizes ever pass through here —
// never payloads; the telemetrysafe analyzer enforces that shape at the
// call sites.
type Telemetry struct {
	seedMsgs, seedBytes   *telemetry.Counter
	maskMsgs, maskBytes   *telemetry.Counter
	shareMsgs, shareBytes *telemetry.Counter
	handshake             *telemetry.Histogram
	journal               *telemetry.Journal
}

// NewTelemetry prepares the protocol's series on r for the given mask mode.
// A nil registry yields a nil (no-op) sink.
func NewTelemetry(r *telemetry.Registry, mode MaskMode) *Telemetry {
	if r == nil {
		return nil
	}
	ml := telemetry.L("mode", mode.String())
	kindL := func(kind string) telemetry.Label { return telemetry.L("kind", kind) }
	return &Telemetry{
		seedMsgs:   r.Counter(metricMsgs, ml, kindL("seed")),
		seedBytes:  r.Counter(metricBytes, ml, kindL("seed")),
		maskMsgs:   r.Counter(metricMsgs, ml, kindL("mask")),
		maskBytes:  r.Counter(metricBytes, ml, kindL("mask")),
		shareMsgs:  r.Counter(metricMsgs, ml, kindL("share")),
		shareBytes: r.Counter(metricBytes, ml, kindL("share")),
		handshake:  r.Histogram(metricHandshake, telemetry.DurationBuckets, ml),
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

// RecordMask counts one sent KindMask message of the given payload size.
func (t *Telemetry) RecordMask(bytes int) {
	if t == nil {
		return
	}
	t.maskMsgs.Inc()
	t.maskBytes.Add(int64(bytes))
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

// JournalSeedSent records one sent setup seed (byte count only).
func (t *Telemetry) JournalSeedSent(node, peer string, trace telemetry.TraceID, bytes int) {
	if t == nil {
		return
	}
	t.journal.Emit(node, "seed.sent", trace, SetupRound, peer, "", int64(bytes), 0)
}

// JournalSeedRecv records one received setup seed (byte count only).
func (t *Telemetry) JournalSeedRecv(node, peer string, trace telemetry.TraceID, bytes int) {
	if t == nil {
		return
	}
	t.journal.Emit(node, "seed.recv", trace, SetupRound, peer, "", int64(bytes), 0)
}

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

package transport

import (
	"github.com/ppml-go/ppml/internal/telemetry"
)

// Telemetry metric families exported by the transport layer. Byte counters
// under ppml_transport_bytes_total count payload bytes only — the same
// definition as Stats.Bytes, so the two sources always agree; the TCP
// network additionally reports whole frames (envelope included) under the
// frame families.
// MetricMsgs and MetricBytes name the per-message counters (labels: net,
// dir). Exported so internal/experiments can source its communication
// tables from the same counters the live /metrics endpoint serves.
const (
	MetricMsgs  = "ppml_transport_msgs_total"
	MetricBytes = "ppml_transport_bytes_total"
)

const (
	metricMsgs       = MetricMsgs
	metricBytes      = MetricBytes
	metricFrames     = "ppml_transport_frames_total"
	metricFrameBytes = "ppml_transport_frame_bytes_total"
	metricPool       = "ppml_transport_frame_pool_total"
	metricErrors     = "ppml_transport_errors_total"
	metricStale      = "ppml_transport_stale_dropped_total"
)

// netCounters are one network's prepared telemetry series. A nil
// *netCounters (no registry attached) no-ops on every method, so the hot
// paths instrument unconditionally. The struct is attached with an atomic
// pointer (see InProc.SetTelemetry / TCP.SetTelemetry), so attaching is
// safe concurrently with live traffic.
type netCounters struct {
	msgsSent, bytesSent    *telemetry.Counter
	msgsRecv, bytesRecv    *telemetry.Counter
	framesSent, framesRecv *telemetry.Counter
	frameBytesSent         *telemetry.Counter
	frameBytesRecv         *telemetry.Counter
	poolHit, poolMiss      *telemetry.Counter
	errDial, errSend       *telemetry.Counter
	errClose               *telemetry.Counter
	stale                  *telemetry.Counter
	journal                *telemetry.Journal
}

func newNetCounters(r *telemetry.Registry, netName string) *netCounters {
	if r == nil {
		return nil
	}
	nl := telemetry.L("net", netName)
	sent := telemetry.L("dir", "sent")
	recv := telemetry.L("dir", "recv")
	return &netCounters{
		msgsSent:       r.Counter(metricMsgs, nl, sent),
		bytesSent:      r.Counter(metricBytes, nl, sent),
		msgsRecv:       r.Counter(metricMsgs, nl, recv),
		bytesRecv:      r.Counter(metricBytes, nl, recv),
		framesSent:     r.Counter(metricFrames, nl, sent),
		framesRecv:     r.Counter(metricFrames, nl, recv),
		frameBytesSent: r.Counter(metricFrameBytes, nl, sent),
		frameBytesRecv: r.Counter(metricFrameBytes, nl, recv),
		poolHit:        r.Counter(metricPool, nl, telemetry.L("result", "hit")),
		poolMiss:       r.Counter(metricPool, nl, telemetry.L("result", "miss")),
		errDial:        r.Counter(metricErrors, nl, telemetry.L("op", "dial")),
		errSend:        r.Counter(metricErrors, nl, telemetry.L("op", "send")),
		errClose:       r.Counter(metricErrors, nl, telemetry.L("op", "close")),
		stale:          r.Counter(metricStale, nl),
		journal:        r.Journal(),
	}
}

// journalSend records one wire send in the flight recorder. Every argument
// is public envelope metadata — node/peer names, a message kind, the trace
// identity, the round counter, a byte count — never payload.
func (t *netCounters) journalSend(from, to, kind string, trace telemetry.TraceID, round int32, payloadBytes int) {
	if t == nil || t.journal == nil {
		return
	}
	t.journal.Emit(from, "net.send", trace, round, to, kind, int64(payloadBytes), 0)
}

// journalRecv records one matched receive. Same public-metadata arguments
// as journalSend: From/Kind/Trace/Round are cleared envelope fields.
func (t *netCounters) journalRecv(node, from, kind string, trace telemetry.TraceID, round int32, payloadBytes int) {
	if t == nil || t.journal == nil {
		return
	}
	//ppml:telemetry-ok From and Kind are envelope routing fields off the received frame — public metadata stamped on every message, never payload-derived
	t.journal.Emit(node, "net.recv", trace, round, from, kind, int64(payloadBytes), 0)
}

func (t *netCounters) sent(payloadBytes int) {
	if t == nil {
		return
	}
	t.msgsSent.Inc()
	t.bytesSent.Add(int64(payloadBytes))
}

func (t *netCounters) recved(payloadBytes int) {
	if t == nil {
		return
	}
	t.msgsRecv.Inc()
	t.bytesRecv.Add(int64(payloadBytes))
}

func (t *netCounters) frameSent(frameBytes int) {
	if t == nil {
		return
	}
	t.framesSent.Inc()
	t.frameBytesSent.Add(int64(frameBytes))
}

func (t *netCounters) frameRecv(frameBytes int) {
	if t == nil {
		return
	}
	t.framesRecv.Inc()
	t.frameBytesRecv.Add(int64(frameBytes))
}

func (t *netCounters) poolGet(hit bool) {
	if t == nil {
		return
	}
	if hit {
		t.poolHit.Inc()
	} else {
		t.poolMiss.Inc()
	}
}

func (t *netCounters) dialError() {
	if t == nil {
		return
	}
	t.errDial.Inc()
}

func (t *netCounters) sendError() {
	if t == nil {
		return
	}
	t.errSend.Inc()
}

func (t *netCounters) closeError() {
	if t == nil {
		return
	}
	t.errClose.Inc()
}

// staleCounter returns the stale-drop counter (nil when telemetry is off)
// for demux.recvMatch.
func (t *netCounters) staleCounter() *telemetry.Counter {
	if t == nil {
		return nil
	}
	return t.stale
}

// Package securesum is a golden stand-in for the hard-audited protocol tier:
// no payload vector may reach a telemetry or log sink.
package securesum

import (
	"fmt"
	"log"

	"ppml/internal/telemetry"
)

// roundShares logs a share buffer: the canonical leak. Both the raw ring
// elements and their wire encoding are flagged.
func roundShares(share []uint64, wire []byte) {
	log.Printf("share %v", share)          // want `\[\]uint64 value passed to telemetry/log sink`
	log.Printf("payload %x", wire)         // want `\[\]byte value passed to telemetry/log sink`
	log.Printf("round %d done", len(wire)) // scalars are fine
}

// record smuggles a vector through the registry's any-typed sink.
func record(r *telemetry.Registry, masked []float64) {
	r.Record("masked", masked) // want `\[\]float64 value passed to telemetry/log sink`
	r.Record("dim", len(masked))
	r.Set("handshake_seconds", 0.25, telemetry.L("mode", "seeded"))
}

// buckets passes a []float64 to Histogram's bounds parameter: static layout
// configuration, exempt by design.
func buckets(r *telemetry.Registry) {
	r.Histogram("round_seconds", []float64{0.01, 0.1, 1})
}

// documented carries the escape hatch: the vector is protocol-public.
func documented(r *telemetry.Registry, landmarks []float64) {
	//ppml:telemetry-ok landmark points are protocol-public by construction (every learner already holds them)
	r.Record("landmarks", landmarks)
}

// journalEvents drives the flight recorder with its intended arguments:
// node/peer names, a kind constant, a round counter, a byte count. Scalars
// and labels pass freely — including the share's length.
func journalEvents(j *telemetry.Journal, share []float64, peer string) {
	j.Emit("mapper-0", "share.sent", telemetry.TraceID{}, 3, peer, "securesum.share", int64(len(share)), 0)
}

// journalStringified launders the share through fmt before the sink: same
// leak as logging the slice.
func journalStringified(j *telemetry.Journal, share []float64) {
	j.Emit("mapper-0", "share.sent", telemetry.TraceID{}, 3, "", fmt.Sprint(share), 0, 0) // want `string built from a payload vector passed to telemetry/log sink`
}

// journalHolder holds the recorder next to the node name, the shape of the
// real drivers.
type journalHolder struct {
	journal *telemetry.Journal
	name    string
}

// record exercises the one-way valve: a scalar computed from the share is a
// legitimate Emit argument (an aggregate statistic), and the call must not
// taint the holder — the name logged afterwards stays clean.
func (h *journalHolder) record(share []float64) {
	sq := 0.0
	for _, x := range share {
		sq += x * x
	}
	h.journal.Emit(h.name, "share.recv", telemetry.TraceID{}, 1, "", "", 0, sq)
	log.Printf("node %s folded a share", h.name)
}

package telemetry

// Distributed trace identity. A TraceID names one training session across
// every node that participates in it; the reducer mints it at session start
// and stamps it into the transport envelope, mappers echo it back, and the
// per-node journals key their events by it so ppml-trace can merge dumps
// from different processes into one cross-node timeline.
//
// Privacy: a TraceID is 16 bytes of crypto/rand output chosen by the
// reducer — pure coordination metadata carrying no information about any
// learner's data, exactly like Session/Round/Seq (DESIGN.md §16). It is
// deliberately a struct of two uint64 words rather than a [16]byte so it is
// a scalar pair under the telemetrysafe vector rules, not a byte vector.

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// TraceID identifies one distributed training session in journal events and
// on the wire. The zero value means "no trace".
type TraceID struct {
	Hi uint64 `json:"hi"`
	Lo uint64 `json:"lo"`
}

// NewTraceID returns a fresh random trace identifier.
func NewTraceID() TraceID {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("telemetry: crypto/rand unavailable: " + err.Error())
	}
	return TraceID{
		Hi: binary.BigEndian.Uint64(b[0:8]),
		Lo: binary.BigEndian.Uint64(b[8:16]),
	}
}

// IsZero reports whether t is the absent trace.
func (t TraceID) IsZero() bool { return t.Hi == 0 && t.Lo == 0 }

// String renders t as 32 lowercase hex digits (W3C trace-id style).
func (t TraceID) String() string {
	var b [16]byte
	binary.BigEndian.PutUint64(b[0:8], t.Hi)
	binary.BigEndian.PutUint64(b[8:16], t.Lo)
	return hex.EncodeToString(b[:])
}

// ParseTraceID parses the 32-hex-digit form produced by String.
func ParseTraceID(s string) (TraceID, error) {
	if len(s) != 32 {
		return TraceID{}, fmt.Errorf("telemetry: trace id must be 32 hex digits, got %d", len(s))
	}
	var b [16]byte
	if _, err := hex.Decode(b[:], []byte(s)); err != nil {
		return TraceID{}, fmt.Errorf("telemetry: bad trace id: %w", err)
	}
	return TraceID{
		Hi: binary.BigEndian.Uint64(b[0:8]),
		Lo: binary.BigEndian.Uint64(b[8:16]),
	}, nil
}

// MarshalText renders the hex form, so JSON journal dumps carry a single
// comparable string per event instead of a {hi,lo} object.
func (t TraceID) MarshalText() ([]byte, error) {
	return []byte(t.String()), nil
}

// UnmarshalText parses the hex form.
func (t *TraceID) UnmarshalText(b []byte) error {
	id, err := ParseTraceID(string(b))
	if err != nil {
		return err
	}
	*t = id
	return nil
}

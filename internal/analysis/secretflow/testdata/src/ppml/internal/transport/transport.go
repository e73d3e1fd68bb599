// Package transport is a golden stub of the message layer. It is itself an
// audited package: Message.Payload and the payload parameter of the send
// path carry raw wire bytes, which must never be embedded in diagnostics.
package transport

import (
	"context"
	"fmt"
)

// Header is the sender-stamped envelope (session, round, roster, and the
// distributed-trace identity).
type Header struct {
	Session uint64
	Round   int32
	Roster  []uint64
	Trace   [2]uint64
}

// Message is one delivered datagram. Everything but Payload is routing
// metadata (cleared fields in the taint model).
type Message struct {
	From, To int
	Kind     string
	Session  uint64
	Round    int32
	Roster   []uint64
	Seq      uint64
	Trace    [2]uint64
	Payload  []byte
}

// Endpoint mirrors the real endpoint's Send signature.
type Endpoint struct{}

// Send delivers a message carrying hdr.
func (Endpoint) Send(ctx context.Context, to, kind string, hdr Header, payload []byte) error {
	return nil
}

// Describe renders the routing envelope. No diagnostics: every field it
// touches is protocol metadata.
func Describe(m Message) string {
	return fmt.Sprintf("from=%d to=%d kind=%s seq=%d", m.From, m.To, m.Kind, m.Seq)
}

// DescribeRoster renders the elastic-round stamp. No diagnostics: roster
// membership is protocol metadata, announced to every learner by the roster
// broadcast itself.
func DescribeRoster(m Message) string {
	return fmt.Sprintf("round=%d roster=%v", m.Round, m.Roster)
}

// Dump embeds the raw payload bytes in a string.
func Dump(m Message) string {
	return fmt.Sprintf("payload=%x", m.Payload) // want `raw wire payload bytes reaches fmt\.Sprintf`
}

// retryError builds a diagnostic from the payload parameter of the send
// path.
func retryError(to string, payload []byte) error {
	return fmt.Errorf("retries exhausted to %s sending %x", to, payload) // want `raw wire payload bytes reaches fmt\.Errorf`
}

// DescribeTrace renders the distributed-trace identity. No diagnostics: it
// is a random session name the reducer mints before any data exists and
// every frame echoes verbatim (cleared field Trace, public like
// Session/Round/Seq).
func DescribeTrace(m Message) string {
	return fmt.Sprintf("trace=%x round=%d", m.Trace, m.Round)
}

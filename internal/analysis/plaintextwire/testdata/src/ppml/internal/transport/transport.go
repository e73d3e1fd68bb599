// Package transport is a golden stub of the message layer: its Send method
// is the sink secretflow's send rule watches.
package transport

import "context"

// Header is the sender-stamped envelope (session, round).
type Header struct {
	Session uint64
	Round   int32
}

// Endpoint mirrors the real endpoint's Send signature.
type Endpoint struct{}

// Send delivers a message carrying hdr.
func (Endpoint) Send(ctx context.Context, to, kind string, hdr Header, payload []byte) error {
	return nil
}

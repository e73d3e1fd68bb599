// Package mapreduce is the audited golden package: every Send here is
// checked against the wire-boundary invariant.
package mapreduce

import (
	"context"

	"ppml/internal/paillier"
	"ppml/internal/securesum"
	"ppml/internal/transport"
)

// Coordination-plane kinds, allowed to carry protocol-public payloads.
const (
	KindBroadcast = "mr.broadcast"
	KindStop      = "mr.stop"
	KindAbort     = "mr.abort"
	KindShare     = "mr.share"
	KindReady     = "mr.ready"
	KindRoster    = "mr.roster"
)

// encodeVector is a plain, non-cryptographic encoder.
func encodeVector(v []float64) []byte { return make([]byte, 8*len(v)) }

// encryptContribution routes through paillier, so its result is wire-safe
// and the function counts as a sanctioned same-package wrapper.
func encryptContribution(v []float64) []byte { return paillier.Encrypt(v) }

// Good sends only control-plane or sanitized payloads. No diagnostics.
func Good(ctx context.Context, ep transport.Endpoint, hdr transport.Header, contrib []float64) error {
	if err := ep.Send(ctx, "learner-0", KindBroadcast, hdr, encodeVector(contrib)); err != nil {
		return err
	}
	if err := ep.Send(ctx, "learner-0", KindStop, hdr, nil); err != nil {
		return err
	}
	if err := ep.Send(ctx, "reducer", KindShare, hdr, securesum.EncodeShares(contrib)); err != nil {
		return err
	}
	payload := paillier.Encrypt(contrib)
	if err := ep.Send(ctx, "reducer", KindShare, hdr, payload); err != nil {
		return err
	}
	return ep.Send(ctx, "reducer", KindShare, hdr, encryptContribution(contrib))
}

// GoodElastic drives the demote-and-continue control plane: a readiness
// declaration and a roster announcement are coordination traffic like stop,
// exempt even when the roster rides with an encoded epoch payload.
// No diagnostics.
func GoodElastic(ctx context.Context, ep transport.Endpoint, hdr transport.Header, epoch []float64) error {
	if err := ep.Send(ctx, "reducer", KindReady, hdr, nil); err != nil {
		return err
	}
	return ep.Send(ctx, "learner-0", KindRoster, hdr, encodeVector(epoch))
}

// Bad puts raw local results on the wire, directly and through a variable.
func Bad(ctx context.Context, ep transport.Endpoint, hdr transport.Header, contrib []float64) error {
	raw := encodeVector(contrib)
	if err := ep.Send(ctx, "reducer", KindShare, hdr, raw); err != nil { // want `does not route through securesum or paillier`
		return err
	}
	return ep.Send(ctx, "reducer", KindShare, hdr, encodeVector(contrib)) // want `does not route through securesum or paillier`
}

// Ablation is the justified deliberate plaintext path. No diagnostics.
func Ablation(ctx context.Context, ep transport.Endpoint, hdr transport.Header, contrib []float64) error {
	//ppml:flow-ok deliberate no-privacy baseline for the ablation benchmark
	return ep.Send(ctx, "reducer", KindShare, hdr, encodeVector(contrib))
}

// AblationUnjustified carries the directive with no reason.
func AblationUnjustified(ctx context.Context, ep transport.Endpoint, hdr transport.Header, contrib []float64) error {
	//ppml:flow-ok
	return ep.Send(ctx, "reducer", KindShare, hdr, encodeVector(contrib)) // want `directive requires a justification string` `does not route through securesum or paillier`
}

package securesum

import (
	"context"
	"crypto/aes"
	"crypto/cipher"

	"ppml/internal/telemetry"
	"ppml/internal/transport"
)

// Wire kinds of the seeded protocol; neither is coordination-plane.
const (
	KindSeed  = "securesum.seed"
	KindShare = "securesum.share"
)

// pairPRG is one pair's keyed keystream expander.
type pairPRG struct {
	aead  cipher.AEAD
	nonce [12]byte
}

// SeededSession mirrors the real session's secret stores: the seeds it drew,
// one PRG per peer keyed by the XOR of both seeds, and the byte scratch a
// round's keystream is expanded into.
type SeededSession struct {
	id    int
	seeds []byte
	pair  []pairPRG
	ks    []byte
	share []uint64
}

// pairKey XORs the seed sent to peer with the one received from it.
func (s *SeededSession) pairKey(peer int, seed []byte) [32]byte {
	var key [32]byte
	for i := range key {
		key[i] = s.seeds[32*peer+i] ^ seed[i]
	}
	return key
}

// SetPeerSeed keys the pair's PRG. No diagnostics: the key goes into the
// cipher and nowhere else.
func (s *SeededSession) SetPeerSeed(peer int, seed []byte) error {
	key := s.pairKey(peer, seed)
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return err
	}
	s.pair[peer].aead, err = cipher.NewGCM(block)
	return err
}

// roundShare expands one peer's keystream into the scratch and folds it into
// the share. No diagnostics: nothing leaves the session.
func (s *SeededSession) roundShare(peer int) []uint64 {
	g := &s.pair[peer]
	g.aead.Seal(s.ks[:0], g.nonce[:], s.ks, nil)
	for i := range s.share {
		s.share[i] += uint64(s.ks[8*i])
	}
	return s.share
}

// SendSeed is the sanctioned key agreement: justified, so no diagnostic.
func (s *SeededSession) SendSeed(ctx context.Context, ep transport.Endpoint, hdr transport.Header, peer int) error {
	//ppml:flow-ok the pairwise seed exchange is the protocol's key agreement
	return ep.Send(ctx, "peer", KindSeed, hdr, s.seeds[32*peer:32*peer+32])
}

// leakPairKey puts the derived pair key itself on the wire.
func (s *SeededSession) leakPairKey(ctx context.Context, ep transport.Endpoint, hdr transport.Header, seed []byte) error {
	key := s.pairKey(1, seed)
	return ep.Send(ctx, "reducer", KindShare, hdr, key[:]) // want `transport send carries securesum seed/mask material`
}

// leakKeystream sends the raw keystream scratch instead of a masked share.
func (s *SeededSession) leakKeystream(ctx context.Context, ep transport.Endpoint, hdr transport.Header) error {
	return ep.Send(ctx, "reducer", KindShare, hdr, s.ks) // want `transport send carries securesum seed/mask material`
}

// appendBytes is the AppendShares shape: it appends into its dst parameter
// and returns it, so what it writes there is its result.
func appendBytes(dst, v []byte) []byte {
	for _, b := range v {
		dst = append(dst, b)
	}
	return dst
}

// leakAppended sends a seed through the append helper.
func (s *SeededSession) leakAppended(ctx context.Context, ep transport.Endpoint, hdr transport.Header) error {
	return ep.Send(ctx, "reducer", KindShare, hdr, appendBytes(nil, s.seeds)) // want `transport send carries securesum seed/mask material`
}

// traceKeystream hands a keystream word and a PRG's nonce state to telemetry.
func (s *SeededSession) traceKeystream(log telemetry.Logger, g telemetry.Gauge) {
	g.Set(float64(s.ks[0]))              // want `securesum seed/mask material reaches telemetry call Set`
	log.Event("prg", s.pair[s.id].nonce) // want `securesum seed/mask material reaches telemetry call Event`
}

package securesum

// Seed-derived round masks: how every share of the Section V protocol is
// masked.
//
// The paper's literal protocol exchanges fresh pairwise masks every round,
// m(m−1) mask messages a round. Here each pair of Mappers instead agrees on
// ONE random key per session: party i draws a uniform seed s_{i→j} for every
// peer j at session setup and sends it over the pairwise channel (KindSeed,
// tagged with the session header), and both ends key one AES-CTR PRG with
// s_{i→j} ⊕ s_{j→i}. From then on they expand it locally into per-round masks
// nonced by (session, round) — the lower id of the pair adds the mask, the
// higher id subtracts it, and it cancels at the Reducer as the literal
// protocol's does — so no mask ever crosses the wire again. Per-round traffic
// is just the m masked shares.
//
// A mask derived from a PRG hides a share computationally (under the
// AES-as-PRF assumption). The literal protocol's masks would hide it
// information-theoretically only over an information-theoretically secure
// pairwise channel, which no transport here provides; see DESIGN.md §10.

import (
	"context"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/ppml-go/ppml/internal/fixedpoint"
	"github.com/ppml-go/ppml/internal/transport"
)

// KindSeed carries one pairwise mask seed between Mappers at session setup.
const KindSeed = "securesum.seed"

// KindShare carries a masked share from a Mapper to the Reducer.
const KindShare = "securesum.share"

// SeedSize is the byte length of one pairwise mask seed and of an AES-256 key.
const SeedSize = 32

// SetupRound tags seed-exchange messages: the handshake happens once per
// session, before consensus round 0.
const SetupRound = -1

const (
	gcmTagSize = 16 // Seal appends a tag after the keystream: scratch room nothing reads
	// maxSeededDim is the longest share one nonce can mask: GCM's 32-bit block
	// counter starts at 2 and must not wrap, two elements per block.
	maxSeededDim = 2 * (1<<32 - 2)
)

// pairPRG expands one pair key into per-round keystream. Block k of round r is
// AES-256_key(session ‖ r ‖ k+2), all big-endian (uint64, uint32, uint32), and
// its bytes are two little-endian ring elements. That is AES-GCM's CTR stream
// under the 12-byte nonce session ‖ r, so one Seal over zeros — pipelined where
// the stdlib has AES hardware, generic elsewhere — yields a whole round's mask,
// and distinct (session, round) pairs never share a counter block.
type pairPRG struct {
	aead  cipher.AEAD
	nonce [12]byte // struct state: a local would escape through the interface, an allocation per peer per round
}

// newPairPRG builds the expander for one 32-byte pair key.
func newPairPRG(key []byte) (pairPRG, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return pairPRG{}, err
	}
	aead, err := cipher.NewGCM(block)
	return pairPRG{aead: aead}, err
}

// keystream overwrites buf, which needs gcmTagSize bytes of spare capacity,
// with the (session, round) keystream.
func (g *pairPRG) keystream(session uint64, round int32, buf []byte) {
	binary.BigEndian.PutUint64(g.nonce[0:], session)
	binary.BigEndian.PutUint32(g.nonce[8:], uint32(round))
	clear(buf)
	g.aead.Seal(buf[:0], g.nonce[:], buf, nil)
}

// SeededSession is one Mapper's masking state for a whole session: its seeds,
// one PRG per peer, and the reusable scratch that keeps the round hot loop
// allocation-free. Not safe for concurrent use; each Mapper goroutine owns one.
type SeededSession struct {
	id      int
	m       int
	dim     int
	session uint64
	codec   fixedpoint.Codec

	seeds []byte    // flat seed material generated for peers (SeedSize each)
	pair  []pairPRG // pair[peer] is keyed by s_{id→peer} ⊕ s_{peer→id}; nil aead until the peer's seed arrives
	pairN int

	ks    []byte   // one peer's round keystream at a time, plus room for the tag
	share []uint64 // fixed-point share scratch, returned by RoundShareFor
	wire  []byte   // wire-encoding scratch, returned by RoundShareBytes
}

// NewSeededSession creates the session state for party id of m and draws the
// m−1 seeds this party will send in a single batched read from random
// (crypto/rand when nil). Shares encode under codec.ForSummands(m), as a
// Party's do; a roster is never larger than the cohort, so the bound holds
// for every roster.
func NewSeededSession(id, m, dim int, session uint64, codec fixedpoint.Codec, random io.Reader) (*SeededSession, error) {
	if m < 1 || id < 0 || id >= m || dim <= 0 || uint64(dim) > maxSeededDim {
		return nil, fmt.Errorf("%w: id=%d m=%d dim=%d", ErrBadParty, id, m, dim)
	}
	if random == nil {
		random = rand.Reader
	}
	s := &SeededSession{
		id: id, m: m, dim: dim, session: session, codec: codec.ForSummands(m),
		seeds: make([]byte, SeedSize*(m-1)),
		pair:  make([]pairPRG, m),
		ks:    make([]byte, 8*dim+gcmTagSize),
	}
	if _, err := io.ReadFull(random, s.seeds); err != nil {
		return nil, fmt.Errorf("securesum randomness: %w", err)
	}
	return s, nil
}

// SeedFor returns the seed this party sends to peer. The returned slice
// aliases session state and must not be modified.
func (s *SeededSession) SeedFor(peer int) ([]byte, error) {
	if peer < 0 || peer >= s.m || peer == s.id {
		return nil, fmt.Errorf("%w: seed for peer %d of %d", ErrBadParty, peer, s.m)
	}
	slot := peer
	if peer > s.id {
		slot--
	}
	return s.seeds[slot*SeedSize : (slot+1)*SeedSize], nil
}

// SetPeerSeed keys the pair's PRG with the seed received from peer XOR the one
// sent to it. Each peer may deliver exactly once per session.
func (s *SeededSession) SetPeerSeed(peer int, seed []byte) error {
	own, err := s.SeedFor(peer)
	if err != nil {
		return err
	}
	if len(seed) != SeedSize {
		return fmt.Errorf("%w: seed of %d bytes from peer %d, want %d", ErrProtocol, len(seed), peer, SeedSize)
	}
	if s.pair[peer].aead != nil {
		return fmt.Errorf("%w: duplicate seed from peer %d", ErrProtocol, peer)
	}
	var key [SeedSize]byte
	subtle.XORBytes(key[:], own, seed)
	s.pair[peer], err = newPairPRG(key[:])
	clear(key[:])
	runtime.KeepAlive(&key) // with no later use the compiler drops the clear as a dead store
	if err != nil {
		return fmt.Errorf("securesum seeded: %w", err)
	}
	s.pairN++
	return nil
}

// RoundShareFor computes this round's masked share over a roster, wᵢ +
// Σ_{j>i} PRG(k_ij, round) − Σ_{j<i} PRG(k_ij, round) with j ranging over the
// peers marked live (a nil live is the full cohort), so the masks cancel at
// the Reducer exactly when every roster member derives its share from the
// SAME roster. This is what makes dropout a local re-derivation instead of a
// new handshake: the pair keys with dead peers simply go unused this round
// (and resume working the round the peer rejoins — keys are per-session, not
// per-roster). Every pairwise seed must have been exchanged; a non-nil live
// must have exactly m entries and live[s.id] true: a party outside the roster
// has no share to contribute.
//
// The returned slice is internal scratch, valid until the next call — the
// driver's lockstep (the Reducer consumes round r before broadcasting round
// r+1) makes that reuse safe on the wire.
func (s *SeededSession) RoundShareFor(round int32, value []float64, live []bool) ([]uint64, error) {
	if live != nil && len(live) != s.m {
		return nil, fmt.Errorf("%w: roster over %d parties, want %d", ErrBadParty, len(live), s.m)
	}
	if live != nil && !live[s.id] {
		return nil, fmt.Errorf("%w: party %d excluded from its own roster", ErrBadParty, s.id)
	}
	if len(value) != s.dim {
		return nil, fmt.Errorf("%w: value has %d elements, want %d", ErrBadParty, len(value), s.dim)
	}
	if s.pairN != s.m-1 {
		return nil, fmt.Errorf("%w: have %d/%d peer seeds", ErrIncomplete, s.pairN, s.m-1)
	}
	share, err := s.codec.EncodeVec(value, s.share)
	if err != nil {
		return nil, fmt.Errorf("securesum encode: %w", err)
	}
	s.share = share
	ks := s.ks[:8*len(share)]
	for peer := range s.pair {
		if peer == s.id || (live != nil && !live[peer]) {
			continue
		}
		s.pair[peer].keystream(s.session, round, ks)
		if s.id < peer {
			accumulate(share, ks, 0)
		} else {
			accumulate(share, ks, ^uint64(0))
		}
	}
	return share, nil
}

// accumulate adds the little-endian words of ks into share when neg is 0 and
// subtracts them when it is all ones: (w ^ neg) − neg is w or −w. Four words a
// step: the one-word loop bounds-checks every load and measures twice as slow.
func accumulate(share []uint64, ks []byte, neg uint64) {
	for ; len(share) >= 4 && len(ks) >= 32; share, ks = share[4:], ks[32:] {
		share[0] += (binary.LittleEndian.Uint64(ks[0:]) ^ neg) - neg
		share[1] += (binary.LittleEndian.Uint64(ks[8:]) ^ neg) - neg
		share[2] += (binary.LittleEndian.Uint64(ks[16:]) ^ neg) - neg
		share[3] += (binary.LittleEndian.Uint64(ks[24:]) ^ neg) - neg
	}
	for i := range share {
		share[i] += (binary.LittleEndian.Uint64(ks[8*i:]) ^ neg) - neg
	}
}

// RoundShareBytes is the full cohort's share (the nil roster) on the wire.
func (s *SeededSession) RoundShareBytes(round int32, value []float64) ([]byte, error) {
	return s.RoundShareBytesFor(round, value, nil)
}

// RoundShareBytesFor is RoundShareFor pre-encoded for the wire in the
// session's byte scratch; like the share, the payload is stable until the
// next round's call.
func (s *SeededSession) RoundShareBytesFor(round int32, value []float64, live []bool) ([]byte, error) {
	share, err := s.RoundShareFor(round, value, live)
	if err != nil {
		return nil, err
	}
	s.wire = AppendShares(s.wire[:0], share)
	return s.wire, nil
}

// seedFilter scopes the setup handshake: this session's seeds are delivered,
// everything else — including the Reducer's round-0 broadcast, which
// routinely arrives before slow peers' seeds — waits in the reorder buffer.
// Deferring is deadlock-free because sending seeds is unconditionally every
// Mapper's first action: the m−1 seeds are already in flight by the time
// anyone blocks here.
func seedFilter(session uint64) transport.Filter {
	return func(m transport.Message) transport.Verdict {
		if m.Session != session || m.Kind != KindSeed {
			return transport.Defer
		}
		return transport.Accept
	}
}

// SetupSeeded runs the one-time seed exchange of a session for one Mapper:
// it sends a seed drawn from crypto/rand to every peer, absorbs the m−1 peer
// seeds, and returns the session state whose RoundShareBytesFor masks every
// subsequent round. names are the cohort's endpoint names by party id, and
// self is this Mapper's id. base is the session's envelope header — its
// Session scopes the exchange and its trace context rides on every seed
// message; the round is overridden with SetupRound. tel (which may be nil)
// counts the seed messages and times the handshake.
func SetupSeeded(ctx context.Context, ep transport.Endpoint, names []string, self, dim int, codec fixedpoint.Codec, base transport.Header, tel *Telemetry) (*SeededSession, error) {
	start := time.Now()
	m := len(names)
	s, err := NewSeededSession(self, m, dim, base.Session, codec, nil)
	if err != nil {
		return nil, err
	}
	idOf := make(map[string]int, m)
	for id, name := range names {
		idOf[name] = id
	}
	hdr := base
	hdr.Round = SetupRound
	hdr.Roster = nil
	for peer := 0; peer < m; peer++ {
		if peer == self {
			continue
		}
		seed, err := s.SeedFor(peer)
		if err != nil {
			return nil, err
		}
		//ppml:flow-ok the pairwise seed exchange IS the protocol's key agreement (DESIGN.md §10): the seed must reach exactly this peer, and both parties of a pair send one because the pair key is the XOR of the two
		if err := ep.Send(ctx, names[peer], KindSeed, hdr, seed); err != nil {
			return nil, fmt.Errorf("securesum: send seed to %q: %w", names[peer], err)
		}
		tel.RecordSeed(len(seed))
	}
	filter := seedFilter(base.Session)
	for received := 0; received < m-1; received++ {
		msg, err := ep.RecvMatch(ctx, filter)
		if err != nil {
			return nil, fmt.Errorf("securesum: receive seed: %w", err)
		}
		peer, ok := idOf[msg.From]
		if !ok {
			return nil, fmt.Errorf("%w: seed from unknown party %q", ErrProtocol, msg.From)
		}
		if err := s.SetPeerSeed(peer, msg.Payload); err != nil {
			return nil, err
		}
	}
	tel.ObserveHandshake(time.Since(start))
	tel.JournalHandshakeDone(names[self], hdr.Trace, time.Since(start))
	return s, nil
}

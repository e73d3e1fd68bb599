// Package securesum implements the coalition-resistant secure summation
// protocol of Section V, which is the only cryptographic machinery the
// framework needs at the Reducer:
//
//  1. each Mapper i holds one uniformly random mask for every other Mapper,
//     shared with that peer;
//  2. Mapper i forms wᵢ + Sedᵢ − Revᵢ, where Sedᵢ is the sum of the masks it
//     adds and Revᵢ the sum of the masks its peers add;
//  3. the Reducer adds the M masked shares: every mask was added once and
//     subtracted once, so the masks cancel and only the sum Σwᵢ remains.
//
// Arithmetic happens in the fixed-point ring Z_{2^64} (package fixedpoint).
// The protocol resists coalitions: as long as two parties are honest, the
// mask on their pairwise channel stays unknown to everyone else, so their
// individual inputs cannot be recovered even if all other Mappers and the
// Reducer pool their knowledge.
//
// Every share on the wire is a SeededSession's (seeded.go): one seed
// exchange per session, then per-round masks expanded locally from the pair
// keys over whichever roster the round runs. Party is the paper's literal
// round, fresh masks drawn for every round, kept as the reference the
// seeded telescope is tested against. Collector is the Reducer's side of
// both, and RunParty/RunCollector drive one round over a transport.Network.
package securesum

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"github.com/ppml-go/ppml/internal/fixedpoint"
)

// Errors returned by the protocol.
var (
	// ErrBadParty indicates invalid party configuration or peer IDs.
	ErrBadParty = errors.New("securesum: bad party")
	// ErrProtocol indicates an out-of-order or duplicate protocol step.
	ErrProtocol = errors.New("securesum: protocol violation")
	// ErrIncomplete indicates an attempt to finish a round before every
	// expected message arrived.
	ErrIncomplete = errors.New("securesum: round incomplete")
)

// Party is one Mapper's state for a single protocol round over vectors of a
// fixed dimension. Reset recycles it — including every scratch buffer — for
// the next round of the same session.
type Party struct {
	id    int
	m     int
	dim   int
	codec fixedpoint.Codec
	rng   io.Reader

	sent map[int][]uint64
	recv map[int][]uint64

	// Backing stores reused across rounds: the maps above hold dim-sized
	// windows into these flats, and Share encodes into shareBuf, so a reused
	// Party allocates nothing per round.
	sentFlat []uint64
	recvFlat []uint64
	shareBuf []uint64
}

// NewParty creates the round state for party id of m (ids are 0-based).
// random defaults to crypto/rand. Share encodes under codec.ForSummands(m):
// an element the m-party sum could wrap on is an error at the party, since
// the Reducer sees only the ring sum.
func NewParty(id, m, dim int, codec fixedpoint.Codec, random io.Reader) (*Party, error) {
	if m < 1 || id < 0 || id >= m || dim <= 0 {
		return nil, fmt.Errorf("%w: id=%d m=%d dim=%d", ErrBadParty, id, m, dim)
	}
	if random == nil {
		random = rand.Reader
	}
	return &Party{
		id: id, m: m, dim: dim, codec: codec.ForSummands(m), rng: random,
		sent: make(map[int][]uint64, m-1),
		recv: make(map[int][]uint64, m-1),
	}, nil
}

// Reset clears the round state (masks generated and received) while keeping
// the party's identity and scratch buffers, so one Party serves every round
// of a session without per-round allocation.
func (p *Party) Reset() {
	clear(p.sent)
	clear(p.recv)
}

// MaskForAll draws the masks for every peer at once, in a single batched
// read from the randomness source, and records them for the share
// computation. masks[peer] is the mask destined for that peer; masks[p.id] is
// nil. A round generates its masks once.
func (p *Party) MaskForAll() ([][]uint64, error) {
	if len(p.sent) != 0 {
		return nil, fmt.Errorf("%w: masks already generated this round", ErrProtocol)
	}
	if p.sentFlat == nil {
		p.sentFlat = make([]uint64, p.dim*(p.m-1))
	}
	flat, err := randomVector(p.rng, p.dim*(p.m-1), p.sentFlat)
	if err != nil {
		return nil, err
	}
	masks := make([][]uint64, p.m)
	next := 0
	for peer := 0; peer < p.m; peer++ {
		if peer == p.id {
			continue
		}
		mask := flat[next : next+p.dim : next+p.dim]
		next += p.dim
		p.sent[peer] = mask
		masks[peer] = mask
	}
	return masks, nil
}

// SetPeerMask records the mask received from peer, copying it into the
// party's own backing store (the caller may reuse or mutate mask after the
// call). Each peer may deliver once per round.
func (p *Party) SetPeerMask(peer int, mask []uint64) error {
	if peer < 0 || peer >= p.m || peer == p.id {
		return fmt.Errorf("%w: mask from peer %d of %d", ErrBadParty, peer, p.m)
	}
	if len(mask) != p.dim {
		return fmt.Errorf("%w: mask from %d has %d elements, want %d", ErrProtocol, peer, len(mask), p.dim)
	}
	if _, dup := p.recv[peer]; dup {
		return fmt.Errorf("%w: duplicate mask from peer %d", ErrProtocol, peer)
	}
	if p.recvFlat == nil {
		p.recvFlat = make([]uint64, p.dim*(p.m-1))
	}
	i := len(p.recv) * p.dim
	slot := p.recvFlat[i : i+p.dim : i+p.dim]
	copy(slot, mask)
	p.recv[peer] = slot
	return nil
}

// Share computes the masked contribution wᵢ + Sedᵢ − Revᵢ over the full
// cohort. A peer whose mask is missing (in either direction) is an
// ErrIncomplete: a share without it cannot cancel at the Reducer. The returned
// slice is the party's encode scratch: it stays valid until the party is Reset
// and shares again.
func (p *Party) Share(value []float64) ([]uint64, error) {
	if len(value) != p.dim {
		return nil, fmt.Errorf("%w: value has %d elements, want %d", ErrBadParty, len(value), p.dim)
	}
	if len(p.sent) != p.m-1 {
		return nil, fmt.Errorf("%w: %d of %d masks generated", ErrIncomplete, len(p.sent), p.m-1)
	}
	if len(p.recv) != p.m-1 {
		return nil, fmt.Errorf("%w: %d of %d masks received", ErrIncomplete, len(p.recv), p.m-1)
	}
	share, err := p.codec.EncodeVec(value, p.shareBuf)
	if err != nil {
		return nil, fmt.Errorf("securesum encode: %w", err)
	}
	p.shareBuf = share
	for _, mask := range p.sent {
		if err := fixedpoint.AddVec(share, mask); err != nil {
			return nil, err
		}
	}
	for _, mask := range p.recv {
		if err := fixedpoint.SubVec(share, mask); err != nil {
			return nil, err
		}
	}
	return share, nil
}

// Collector is the Reducer's state for one round: it accumulates the M
// masked shares and exposes only their sum. ResetFor lets a round expect
// fewer shares than the cohort size, for elastic rosters.
type Collector struct {
	m      int // shares expected this round (≤ cohort)
	cohort int // cohort size at construction, the ceiling for ResetFor
	dim    int
	codec  fixedpoint.Codec
	seen   int
	acc    []uint64
}

// NewCollector creates a collector expecting m shares of the given dimension.
func NewCollector(m, dim int, codec fixedpoint.Codec) (*Collector, error) {
	if m < 1 || dim <= 0 {
		return nil, fmt.Errorf("%w: m=%d dim=%d", ErrBadParty, m, dim)
	}
	return &Collector{m: m, cohort: m, dim: dim, codec: codec, acc: make([]uint64, dim)}, nil
}

// Reset clears the collector for the next round, zeroing the accumulator in
// place so the Reducer reuses one collector per session.
func (c *Collector) Reset() {
	c.seen = 0
	for i := range c.acc {
		c.acc[i] = 0
	}
}

// ResetFor is Reset with a new expected share count — the elastic Reducer's
// per-round entry point, where the roster (not the full cohort) decides how
// many shares complete the sum. n must be at least 1 and at most the cohort
// size the collector was built for.
func (c *Collector) ResetFor(n int) error {
	if n < 1 || n > c.cohort {
		return fmt.Errorf("%w: %d shares of a %d-party cohort", ErrBadParty, n, c.cohort)
	}
	c.m = n
	c.Reset()
	return nil
}

// Add folds one masked share into the aggregate.
func (c *Collector) Add(share []uint64) error {
	if len(share) != c.dim {
		return fmt.Errorf("%w: share has %d elements, want %d", ErrProtocol, len(share), c.dim)
	}
	if c.seen >= c.m {
		return fmt.Errorf("%w: more than %d shares", ErrProtocol, c.m)
	}
	if err := fixedpoint.AddVec(c.acc, share); err != nil {
		return err
	}
	c.seen++
	return nil
}

// Sum returns Σᵢ wᵢ once all m shares arrived.
func (c *Collector) Sum() ([]float64, error) {
	return c.SumInto(nil)
}

// SumInto is Sum decoded into dst under the fixedpoint reuse contract, for
// reducers that drain one aggregate per round into the same buffer.
func (c *Collector) SumInto(dst []float64) ([]float64, error) {
	if c.seen != c.m {
		return nil, fmt.Errorf("%w: %d of %d shares", ErrIncomplete, c.seen, c.m)
	}
	return c.codec.DecodeVec(c.acc, dst)
}

// stagingPool recycles the byte buffers randomVector stages its reads in, so
// drawing masks every round does not allocate a transient byte slice per
// call. Only the staging buffer is pooled — the resulting ring elements have
// caller-controlled lifetime via dst.
var stagingPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// randomVector draws dim uniform ring elements from random into dst,
// following the fixedpoint buffer-reuse contract: a dst with capacity ≥ dim
// is resliced and filled, a nil dst allocates, a too-small non-nil dst is an
// error (silent fallback would hide a broken reuse path).
func randomVector(random io.Reader, dim int, dst []uint64) ([]uint64, error) {
	switch {
	case dst == nil:
		dst = make([]uint64, dim)
	case cap(dst) >= dim:
		dst = dst[:dim]
	default:
		return nil, fmt.Errorf("%w: destination capacity %d for %d elements", ErrBadParty, cap(dst), dim)
	}
	bp := stagingPool.Get().(*[]byte)
	buf := *bp
	if cap(buf) < 8*dim {
		buf = make([]byte, 8*dim)
	}
	buf = buf[:8*dim]
	if _, err := io.ReadFull(random, buf); err != nil {
		*bp = buf[:0]
		stagingPool.Put(bp)
		return nil, fmt.Errorf("securesum randomness: %w", err)
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	*bp = buf[:0]
	stagingPool.Put(bp)
	return dst, nil
}

// AppendShares appends the wire encoding of a ring vector to dst and returns
// the extended slice, growing it at most once, and only when dst lacks
// capacity.
func AppendShares(dst []byte, v []uint64) []byte {
	dst = slices.Grow(dst, 8*len(v))
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, x)
	}
	return dst
}

// DecodeShares parses a wire payload back into a fresh ring vector.
func DecodeShares(b []byte) ([]uint64, error) {
	return DecodeSharesInto(nil, b)
}

// DecodeSharesInto parses a wire payload into dst under the same reuse
// contract as randomVector: sufficient capacity reuses, nil allocates, a
// too-small non-nil dst errors. Receivers that decode one share per party
// per round reuse a single buffer this way.
func DecodeSharesInto(dst []uint64, b []byte) ([]uint64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("%w: payload of %d bytes is not a uint64 vector", ErrProtocol, len(b))
	}
	n := len(b) / 8
	switch {
	case dst == nil:
		dst = make([]uint64, n)
	case cap(dst) >= n:
		dst = dst[:n]
	default:
		return nil, fmt.Errorf("%w: destination capacity %d for %d elements", ErrProtocol, cap(dst), n)
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return dst, nil
}

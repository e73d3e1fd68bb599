package securesum

import (
	"context"
	"fmt"
	"io"

	"github.com/ppml-go/ppml/internal/fixedpoint"
	"github.com/ppml-go/ppml/internal/transport"
)

// Message kinds used on the wire.
const (
	// KindMask carries a pairwise mask between Mappers.
	KindMask = "securesum.mask"
	// KindShare carries a masked share from a Mapper to the Reducer.
	KindShare = "securesum.share"
)

// roundFilter scopes one receive phase of hdr's (session, round) to kind: this
// round's messages of that kind are delivered, a fast party's future-round
// ones wait in the reorder buffer, and leftovers of finished rounds are
// dropped and counted. Everything else of the session is delivered, so the
// caller fails the round on a control message (a stop) exactly as on any
// other protocol violation.
func roundFilter(hdr transport.Header, kind string) transport.Filter {
	return func(m transport.Message) transport.Verdict {
		if m.Session != hdr.Session {
			return transport.Defer
		}
		if m.Kind == kind {
			switch {
			case m.Round < hdr.Round:
				return transport.Drop
			case m.Round > hdr.Round:
				return transport.Defer
			}
		}
		return transport.Accept
	}
}

// PerRoundParty drives one Mapper's side of the per-round-mask protocol for
// a whole session, reusing one Party's state machine and all wire scratch
// across rounds so the hot loop allocates nothing. It is not safe for
// concurrent use; each Mapper goroutine owns one.
type PerRoundParty struct {
	ep      transport.Endpoint
	names   []string
	reducer string
	self    int
	party   *Party
	idOf    map[string]int

	maskBuf  []uint64 // decode scratch for incoming masks (copied by SetPeerMask)
	maskWire [][]byte // per-peer outgoing mask encodings, reused across rounds
	wire     []byte   // share encoding, reused across rounds

	tel *Telemetry
}

// SetTelemetry attaches a metric sink; nil (the default) records nothing.
func (r *PerRoundParty) SetTelemetry(t *Telemetry) { r.tel = t }

// NewPerRoundParty builds the session runner for party self of names over
// vectors of length dim. random defaults to crypto/rand.
func NewPerRoundParty(ep transport.Endpoint, names []string, self int, reducer string, dim int, codec fixedpoint.Codec, random io.Reader) (*PerRoundParty, error) {
	party, err := NewParty(self, len(names), dim, codec, random)
	if err != nil {
		return nil, err
	}
	idOf := make(map[string]int, len(names))
	for id, name := range names {
		idOf[name] = id
	}
	return &PerRoundParty{
		ep: ep, names: names, reducer: reducer, self: self,
		party: party, idOf: idOf,
		maskWire: make([][]byte, len(names)),
	}, nil
}

// Round executes one protocol round over the full cohort: send a fresh mask
// to every peer, absorb theirs, submit the masked share of value to the
// reducer. Every member's share telescopes over every pair, so the Reducer's
// sum of all m shares cancels.
//
// hdr stamps every message with the job session and the consensus round, and
// the receive side demultiplexes on it: a fast peer's next-round masks are
// buffered for that round instead of corrupting this one, and leftovers of
// earlier rounds are dropped. Nothing but masks is expected mid-round, so a
// control message (a stop) fails it with ErrProtocol.
//
// Reusing the per-peer wire buffers across rounds is safe under the driver's
// lockstep: peer p absorbs our round-r mask before sending its round-r
// share, the Reducer needs every round-r share before broadcasting round
// r+1, and we only overwrite the buffer after receiving that broadcast.
func (r *PerRoundParty) Round(ctx context.Context, hdr transport.Header, value []float64) error {
	m := len(r.names)
	r.party.Reset()
	masks, err := r.party.MaskForAll()
	if err != nil {
		return err
	}
	for peer := 0; peer < m; peer++ {
		if peer == r.self {
			continue
		}
		if r.maskWire[peer] == nil {
			r.maskWire[peer] = make([]byte, 0, 8*len(masks[peer]))
		}
		r.maskWire[peer] = AppendShares(r.maskWire[peer][:0], masks[peer])
		//ppml:flow-ok the per-round pairwise mask IS the protocol's key material (DESIGN.md §10): it must reach exactly this peer, which subtracts it from its own share so the pair cancels in the Reducer's sum
		if err := r.ep.Send(ctx, r.names[peer], KindMask, hdr, r.maskWire[peer]); err != nil {
			return fmt.Errorf("securesum: send mask to %q: %w", r.names[peer], err)
		}
		r.tel.RecordMask(len(r.maskWire[peer]))
	}
	filter := roundFilter(hdr, KindMask)
	for received := 0; received < m-1; received++ {
		msg, err := r.ep.RecvMatch(ctx, filter)
		if err != nil {
			return fmt.Errorf("securesum: receive mask: %w", err)
		}
		if msg.Kind != KindMask {
			return fmt.Errorf("%w: party %d got %q mid-round", ErrProtocol, r.self, msg.Kind)
		}
		peer, ok := r.idOf[msg.From]
		if !ok {
			return fmt.Errorf("%w: mask from unknown party %q", ErrProtocol, msg.From)
		}
		mask, err := DecodeSharesInto(r.maskBuf, msg.Payload)
		if err != nil {
			return err
		}
		r.maskBuf = mask
		if err := r.party.SetPeerMask(peer, mask); err != nil {
			return err
		}
	}
	share, err := r.party.Share(value)
	if err != nil {
		return err
	}
	r.wire = AppendShares(r.wire[:0], share)
	if err := r.ep.Send(ctx, r.reducer, KindShare, hdr, r.wire); err != nil {
		return fmt.Errorf("securesum: send share: %w", err)
	}
	r.tel.RecordShare(len(r.wire))
	return nil
}

// RunParty executes one protocol round for one Mapper over its transport
// endpoint. Callers running many rounds should hold a PerRoundParty so the
// scratch buffers survive between rounds.
func RunParty(ctx context.Context, ep transport.Endpoint, names []string, self int, reducer string, value []float64, codec fixedpoint.Codec, random io.Reader, hdr transport.Header) error {
	r, err := NewPerRoundParty(ep, names, self, reducer, len(value), codec, random)
	if err != nil {
		return err
	}
	return r.Round(ctx, hdr, value)
}

// RunCollector executes the Reducer's side of one round: it waits for the m
// masked shares of hdr's (session, round) on ep and returns their decoded
// sum. Out-of-round shares are buffered or dropped per roundFilter. Shares
// are decoded into one reused buffer — the collector copies into its
// accumulator immediately.
func RunCollector(ctx context.Context, ep transport.Endpoint, m, dim int, codec fixedpoint.Codec, hdr transport.Header) ([]float64, error) {
	col, err := NewCollector(m, dim, codec)
	if err != nil {
		return nil, err
	}
	filter := roundFilter(hdr, KindShare)
	var shareBuf []uint64
	for received := 0; received < m; received++ {
		msg, err := ep.RecvMatch(ctx, filter)
		if err != nil {
			return nil, fmt.Errorf("securesum: receive share: %w", err)
		}
		if msg.Kind != KindShare {
			return nil, fmt.Errorf("%w: reducer got %q mid-round", ErrProtocol, msg.Kind)
		}
		share, err := DecodeSharesInto(shareBuf, msg.Payload)
		if err != nil {
			return nil, err
		}
		shareBuf = share
		if err := col.Add(share); err != nil {
			return nil, fmt.Errorf("share from %q: %w", msg.From, err)
		}
	}
	return col.Sum()
}

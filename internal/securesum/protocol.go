package securesum

import (
	"context"
	"fmt"
	"io"

	"github.com/ppml-go/ppml/internal/fixedpoint"
	"github.com/ppml-go/ppml/internal/transport"
)

// KindShare carries a masked share from a Mapper to the Reducer.
const KindShare = "securesum.share"

// shareFilter scopes the Reducer's receive phase to hdr's (session, round):
// this round's shares are delivered, a fast party's future-round ones wait in
// the reorder buffer, and leftovers of finished rounds are dropped and
// counted. Everything else of the session is delivered, so the caller fails
// the round on a control message (a stop) exactly as on any other protocol
// violation.
func shareFilter(hdr transport.Header) transport.Filter {
	return func(m transport.Message) transport.Verdict {
		if m.Session != hdr.Session {
			return transport.Defer
		}
		if m.Kind == KindShare {
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

// RunParty executes one seeded round for one Mapper over its transport
// endpoint: the session's seed exchange (SetupSeeded, under hdr's session),
// then the masked share of value for hdr's round, sent to the reducer as one
// KindShare. That is m(m−1) seeds and m shares for the cohort. Callers
// running many rounds hold the SeededSession instead, so the seeds are
// exchanged once per session.
func RunParty(ctx context.Context, ep transport.Endpoint, names []string, self int, reducer string, value []float64, codec fixedpoint.Codec, random io.Reader, hdr transport.Header) error {
	s, err := SetupSeeded(ctx, ep, names, self, len(value), codec, random, hdr, nil)
	if err != nil {
		return err
	}
	payload, err := s.RoundShareBytes(hdr.Round, value)
	if err != nil {
		return err
	}
	//ppml:flow-ok the masked share IS the protocol's output (DESIGN.md §10): the value plus this party's pair masks, which cancel only in the Reducer's sum over the roster
	if err := ep.Send(ctx, reducer, KindShare, hdr, payload); err != nil {
		return fmt.Errorf("securesum: send share: %w", err)
	}
	return nil
}

// RunCollector executes the Reducer's side of one round: it waits for the m
// masked shares of hdr's (session, round) on ep and returns their decoded
// sum. Out-of-round shares are buffered or dropped per shareFilter. Shares
// are decoded into one reused buffer — the collector copies into its
// accumulator immediately.
func RunCollector(ctx context.Context, ep transport.Endpoint, m, dim int, codec fixedpoint.Codec, hdr transport.Header) ([]float64, error) {
	col, err := NewCollector(m, dim, codec)
	if err != nil {
		return nil, err
	}
	filter := shareFilter(hdr)
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

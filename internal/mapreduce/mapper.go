package mapreduce

import (
	"context"
	"fmt"
	"time"

	"github.com/ppml-go/ppml/internal/fixedpoint"
	"github.com/ppml-go/ppml/internal/securesum"
	"github.com/ppml-go/ppml/internal/transport"
)

// mapperEnv is what every Mapper of one job shares beyond the session: the
// engine's resolved policy (a straggler deadline means rounds run the
// handshake), the job's constants and the metric handles, built once in
// RunDistributed and read only.
type mapperEnv struct {
	sessionEnv
	policy
	agg   Aggregation
	codec fixedpoint.Codec
	dim   int
	sstel *securesum.Telemetry
}

// mapperFilter demultiplexes a Mapper for its whole session, relative to the
// round it is serving (*round; -1 before the first broadcast). A NEWER
// broadcast is delivered — it starts the next round, or means the Reducer
// moved on without us (we were demoted) and lets the mapper catch up; a
// duplicate is dropped. Roster declarations for this round are delivered,
// older ones dropped, newer ones held. Other sessions' traffic is held
// untouched; everything else of this session (stop, or a genuinely
// unexpected kind) is delivered to the loop.
func mapperFilter(session uint64, round *int32) transport.Filter {
	return func(m transport.Message) transport.Verdict {
		if m.Session != session {
			return transport.Defer
		}
		switch m.Kind {
		case KindBroadcast:
			if m.Round > *round {
				return transport.Accept
			}
			return transport.Drop
		case KindRoster:
			switch {
			case m.Round < *round:
				return transport.Drop
			case m.Round > *round:
				return transport.Defer
			}
		}
		return transport.Accept
	}
}

// mapperNode is the long-lived Mapper task: wait for a broadcast, compute the
// local contribution, declare ready under a straggler deadline, and
// serve every roster the Reducer declares for the round until it moves on;
// exit on stop.
type mapperNode struct {
	*mapperEnv
	id     int
	node   string // this mapper's endpoint name
	ep     transport.Endpoint
	mapper IterativeMapper
	seeded *securesum.SeededSession // masked aggregation

	round   int32     // the round being served; -1 before the first broadcast
	state   []float64 // the broadcast state, decoded into one buffer for the job
	contrib []float64 // this round's contribution
	ring    []uint64  // this round's plain share, ring-encoded
	wire    []byte    // this round's plain share, framed for the wire
	live    []bool    // the served roster, expanded

	stale   transport.Filter  // sweeps frames of rounds before n.round
	evictor transport.Evictor // the endpoint's reorder-buffer sweep, nil when it has none
}

func runMapperNode(ctx context.Context, env *mapperEnv, id int, ep transport.Endpoint, mapper IterativeMapper) (err error) {
	n := &mapperNode{
		mapperEnv: env, id: id, node: env.names[id], ep: ep, mapper: mapper,
		round: -1,
		live:  make([]bool, len(env.names)),
	}
	// Masked aggregation keeps per-session protocol state so every round
	// reuses the same scratch, and runs its one-time seed exchange here: each
	// Mapper's first action is sending its seeds, so it completes without any
	// round message interleaving (the reducer's early broadcasts wait in the
	// reorder buffer).
	if env.agg == AggregationMasked {
		n.seeded, err = securesum.SetupSeeded(ctx, ep, env.names, id, env.dim, env.codec, env.header(securesum.SetupRound), env.sstel)
		if err != nil {
			return fmt.Errorf("mapper %d aggregation setup: %w", id, err)
		}
	}
	// Every way out of the loop but a stop is fatal to this mapper, and a
	// strict round has no window to notice a silent one: whatever the cause,
	// the Reducer hears an abort stamped with the round. It carries no
	// payload, since the error may quote private values (an encode error
	// names the element out of range).
	defer func() {
		if err != nil {
			//ppml:err-ok best-effort abort notification: the error it reports is the one worth returning
			_ = ep.Send(ctx, reducerName, KindAbort, n.header(n.round), nil)
		}
	}()
	filter := mapperFilter(env.session, &n.round)
	n.stale = staleRoundFilter(env.session, &n.round)
	n.evictor, _ = ep.(transport.Evictor)
	for {
		msg, err := ep.RecvMatch(ctx, filter)
		if err != nil {
			return fmt.Errorf("mapper %d: %w", id, err)
		}
		switch msg.Kind {
		case KindStop:
			msg.Release()
			return nil
		case KindBroadcast:
			if err := n.startRound(&msg); err != nil {
				return err
			}
			if env.deadline > 0 {
				// This mapper holds a contribution for the round and can
				// join its roster.
				if err := ep.Send(ctx, reducerName, KindReady, n.header(n.round), nil); err != nil {
					return fmt.Errorf("mapper %d: ready: %w", id, err)
				}
				continue
			}
			// No handshake: the roster is the fixed cohort, declared by
			// nobody — serve it as if the Reducer had.
			msg = transport.Message{Round: n.round}
		case KindRoster:
			// The roster rides in the envelope, decoded into a slice of its
			// own: the frame body is done with.
			msg.Release()
		default:
			return fmt.Errorf("%w: unexpected %q at mapper", ErrBadJob, msg.Kind)
		}
		if err := n.serve(ctx, msg.Roster); err != nil {
			return err
		}
	}
}

// startRound takes the round from a broadcast's envelope, decodes its state,
// releases the frame, and solves the round's contribution, journalling the
// solve.
func (n *mapperNode) startRound(msg *transport.Message) error {
	n.round = msg.Round
	// Every broadcast decodes into the one buffer n.state: RunLocalContext
	// reuses its state across rounds too, so no Contribution keeps it.
	var err error
	n.state, err = decodeVectorInto(n.state, msg.Payload)
	msg.Release()
	if err != nil {
		return fmt.Errorf("mapper %d: %w", n.id, err)
	}
	// Round advance: frames of earlier rounds still in the reorder buffer will
	// never be claimed; sweep them.
	if n.evictor != nil {
		n.evictor.Evict(n.stale)
	}
	n.journal.Emit(n.node, "solve.start", n.trace, n.round, "", "", 0, 0)
	start := time.Now()
	if n.contrib, err = n.mapper.Contribution(int(n.round), n.state); err != nil {
		return fmt.Errorf("%w: mapper %d at iteration %d: %v", ErrAborted, n.id, n.round, err)
	}
	n.journal.Emit(n.node, "solve.end", n.trace, n.round, "", "", 0, time.Since(start).Seconds())
	return nil
}

// serve derives and sends this mapper's share of the round over one roster,
// stamped with it. A nil roster is the fixed cohort.
func (n *mapperNode) serve(ctx context.Context, roster transport.Roster) error {
	if roster != nil {
		if !roster.Has(n.id) {
			return nil // demoted this round; wait for the next broadcast
		}
		n.journal.Emit(n.node, "roster.recv", n.trace, n.round, "", "", 0, float64(roster.Count()))
	}
	for i := range n.live {
		n.live[i] = roster == nil || roster.Has(i)
	}
	hdr := n.header(n.round)
	hdr.Roster = roster
	if n.agg == AggregationPlain {
		// The masked share without its masks: the contribution's ring
		// encoding, framed as a masked share is, in buffers the mapper keeps.
		// The Reducer folds round r's shares before it broadcasts round r+1,
		// the only thing that makes this mapper write them again (the
		// argument SeededSession's scratch rests on).
		ring, err := n.codec.EncodeVec(n.contrib, n.ring)
		if err != nil {
			return fmt.Errorf("mapper %d aggregation: %w", n.id, err)
		}
		n.ring = ring
		n.wire = securesum.AppendShares(n.wire[:0], ring)
		//ppml:flow-ok AggregationPlain is the deliberate no-privacy ablation baseline (BenchmarkAggregatorOverhead); selecting it is an explicit opt-out
		if err := n.ep.Send(ctx, reducerName, KindPlainShare, hdr, n.wire); err != nil {
			return fmt.Errorf("mapper %d: %w", n.id, err)
		}
		return nil
	}
	// Derive this roster's masks locally and send only the masked share: no
	// mask crosses the wire.
	n.sstel.JournalMaskPhase(n.node, "mask.start", n.trace, n.round, 0)
	start := time.Now()
	payload, err := n.seeded.RoundShareBytesFor(n.round, n.contrib, n.live)
	if err != nil {
		return fmt.Errorf("mapper %d aggregation: %w", n.id, err)
	}
	n.sstel.JournalMaskPhase(n.node, "mask.end", n.trace, n.round, time.Since(start))
	if err := n.ep.Send(ctx, reducerName, securesum.KindShare, hdr, payload); err != nil {
		return fmt.Errorf("mapper %d: %w", n.id, err)
	}
	n.sstel.RecordShare(len(payload))
	return nil
}

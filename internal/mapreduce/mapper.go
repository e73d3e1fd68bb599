package mapreduce

import (
	"context"
	"fmt"
	"time"

	"github.com/ppml-go/ppml/internal/fixedpoint"
	"github.com/ppml-go/ppml/internal/securesum"
	"github.com/ppml-go/ppml/internal/telemetry"
	"github.com/ppml-go/ppml/internal/transport"
)

// mapperEnv is what every Mapper of one job shares beyond the session: the
// engine's resolved policy (the handshake, the staleness window and its
// decay), the job's constants and the metric handles, built once in
// RunDistributed and read only.
type mapperEnv struct {
	sessionEnv
	policy
	agg      Aggregation
	maskMode MaskMode
	codec    fixedpoint.Codec
	dim      int
	sstel    *securesum.Telemetry
}

// solver runs one mapper's Contribution calls, journalling each solve.
type solver struct {
	mapper  IterativeMapper
	journal *telemetry.Journal
	node    string
	trace   telemetry.TraceID
}

// solve runs one Contribution. Every Contribution is deterministic in its
// state, so a failed call would fail again: its error is terminal.
func (s *solver) solve(iter int, state []float64) ([]float64, error) {
	s.journal.Emit(s.node, "solve.start", s.trace, int32(iter), "", "", 0, 0)
	start := time.Now()
	contrib, err := s.mapper.Contribution(iter, state)
	if err != nil {
		return nil, err
	}
	s.journal.Emit(s.node, "solve.end", s.trace, int32(iter), "", "", 0, time.Since(start).Seconds())
	return contrib, nil
}

// mapperFilter demultiplexes a Mapper for its whole session, relative to the
// round it is serving (*round; -1 before the first broadcast). A NEWER
// broadcast is delivered — it starts the next round, or means the Reducer
// moved on without us (we were demoted) and lets the mapper catch up; a
// duplicate is dropped. Roster declarations for this round are delivered,
// older ones dropped, newer ones held. Peers' masks are never delivered here:
// they wait in the reorder buffer until the round's own mask exchange claims
// them, and masks of finished rounds are dropped. Other sessions'
// traffic is held untouched; everything else of this session (stop, or a
// genuinely unexpected kind) is delivered to the loop.
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
		case KindRoster, securesum.KindMask:
			switch {
			case m.Round < *round:
				return transport.Drop
			case m.Round > *round || m.Kind == securesum.KindMask:
				return transport.Defer
			}
		}
		return transport.Accept
	}
}

// mapperNode is the long-lived Mapper task: wait for a broadcast, compute the
// local contribution, declare ready when the Reducer runs the handshake, and
// serve every roster the Reducer declares for the round until it moves on;
// exit on stop.
type mapperNode struct {
	*mapperEnv
	id       int
	ep       transport.Endpoint
	sv       solver
	seeded   *securesum.SeededSession // masked aggregation, MaskSeeded
	perRound *securesum.PerRoundParty // masked aggregation, MaskPerRound
	async    *asyncComputer           // bounded staleness only

	round   int32     // the round being served; -1 before the first broadcast
	contrib []float64 // this round's contribution
	ready   []byte    // this round's ready-declaration payload (the staleness stamp)
	live    []bool    // the served roster, expanded

	stale   transport.Filter  // sweeps frames of rounds before n.round
	evictor transport.Evictor // the endpoint's reorder-buffer sweep, nil when it has none
}

func runMapperNode(ctx context.Context, env *mapperEnv, id int, ep transport.Endpoint, mapper IterativeMapper) (err error) {
	n := &mapperNode{
		mapperEnv: env, id: id, ep: ep,
		sv:    solver{mapper, env.journal, env.names[id], env.trace},
		round: -1,
		live:  make([]bool, len(env.names)),
	}
	// Masked aggregation keeps per-session protocol state so every round
	// reuses the same scratch. Seeded mode also runs its one-time seed
	// exchange here: each Mapper's first action is sending its seeds, so it
	// completes without any round message interleaving (the reducer's early
	// broadcasts wait in the reorder buffer).
	if env.agg == AggregationMasked {
		if env.maskMode == MaskPerRound {
			n.perRound, err = securesum.NewPerRoundParty(ep, env.names, id, reducerName, env.dim, env.codec, nil)
			if n.perRound != nil {
				n.perRound.SetTelemetry(env.sstel)
			}
		} else {
			n.seeded, err = securesum.SetupSeeded(ctx, ep, env.names, id, env.dim, env.codec, nil, env.header(securesum.SetupRound), env.sstel)
		}
		if err != nil {
			return fmt.Errorf("mapper %d aggregation setup: %w", id, err)
		}
	}
	// Bounded staleness: Contribution calls move to a background worker so
	// the protocol loop can answer a broadcast with the newest completed
	// (≤ S rounds old) contribution instead of stalling the roster.
	if env.staleness > 0 {
		n.async = newAsyncComputer(n.sv)
		defer n.async.close()
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
			return nil
		case KindBroadcast:
			if err := n.startRound(ctx, msg); err != nil {
				return err
			}
			if env.handshake {
				if err := n.declareReady(ctx); err != nil {
					return err
				}
				continue
			}
			// No handshake: the roster is the fixed cohort, declared by
			// nobody — serve it as if the Reducer had.
			msg = transport.Message{Round: n.round}
		case KindRoster:
		default:
			return fmt.Errorf("%w: unexpected %q at mapper", ErrBadJob, msg.Kind)
		}
		if err := n.serve(ctx, msg.Roster); err != nil {
			return err
		}
	}
}

// startRound takes the round from a broadcast's envelope, decodes its state
// and produces the round's contribution: solved inline, or under bounded
// staleness the newest one the background worker has completed.
func (n *mapperNode) startRound(ctx context.Context, msg transport.Message) error {
	n.round = msg.Round
	state, err := decodeVector(msg.Payload)
	if err != nil {
		return fmt.Errorf("mapper %d: %w", n.id, err)
	}
	iter := int(msg.Round)
	// Round advance: frames of earlier rounds still in the reorder buffer will
	// never be claimed; sweep them.
	if n.evictor != nil {
		n.evictor.Evict(n.stale)
	}
	if n.async == nil {
		n.contrib, err = n.sv.solve(iter, state)
	} else {
		// Hand the worker the new state (newest wins), then wait only until
		// SOME contribution within the staleness window exists — usually the
		// one already in hand.
		n.async.submit(iter, state)
		if err = n.async.wait(ctx, iter-n.staleness); err == nil {
			if n.contrib, n.ready, err = n.async.share(iter, n.decay); err != nil {
				return fmt.Errorf("mapper %d: %w", n.id, err)
			}
		}
	}
	if err != nil {
		return fmt.Errorf("%w: mapper %d at iteration %d: %v", ErrAborted, n.id, iter, err)
	}
	return nil
}

// declareReady tells the Reducer this mapper holds a contribution for the
// round and can join its roster.
func (n *mapperNode) declareReady(ctx context.Context) error {
	if err := n.ep.Send(ctx, reducerName, KindReady, n.header(n.round), n.ready); err != nil {
		return fmt.Errorf("mapper %d: ready: %w", n.id, err)
	}
	n.journal.Emit(n.sv.node, "ready.sent", n.trace, n.round, reducerName, "", 0, float64(stalenessStamp(n.ready)))
	return nil
}

// serve derives and sends this mapper's share of the round over one roster,
// stamped with it. A nil roster is the fixed cohort.
func (n *mapperNode) serve(ctx context.Context, roster transport.Roster) error {
	if roster != nil {
		if !roster.Has(n.id) {
			return nil // demoted this round; wait for the next broadcast
		}
		n.journal.Emit(n.sv.node, "roster.recv", n.trace, n.round, "", "", 0, float64(roster.Count()))
	}
	for i := range n.live {
		n.live[i] = roster == nil || roster.Has(i)
	}
	hdr := n.header(n.round)
	hdr.Roster = roster
	switch {
	case n.agg == AggregationPlain:
		//ppml:flow-ok AggregationPlain is the deliberate no-privacy ablation baseline (Fig. 5 comparisons); selecting it is an explicit opt-out
		if err := n.ep.Send(ctx, reducerName, KindPlainShare, hdr, appendVector(nil, n.contrib)); err != nil {
			return fmt.Errorf("mapper %d: %w", n.id, err)
		}
		return nil
	case n.seeded != nil:
		// Seeded masks: derive this roster's masks locally and send only the
		// masked share — no per-round mask messages.
		n.sstel.JournalMaskPhase(n.sv.node, "mask.start", n.trace, n.round, 0)
		start := time.Now()
		payload, err := n.seeded.RoundShareBytesFor(n.round, n.contrib, n.live)
		if err != nil {
			return fmt.Errorf("mapper %d aggregation: %w", n.id, err)
		}
		n.sstel.JournalMaskPhase(n.sv.node, "mask.end", n.trace, n.round, time.Since(start))
		if err := n.ep.Send(ctx, reducerName, securesum.KindShare, hdr, payload); err != nil {
			return fmt.Errorf("mapper %d: %w", n.id, err)
		}
		n.sstel.RecordShare(len(payload))
		n.journal.Emit(n.sv.node, "share.sent", n.trace, n.round, reducerName, securesum.KindShare, int64(len(payload)), 0)
		return nil
	case n.perRound != nil:
		// Per-round masks, strict rounds only: exchange fresh masks with the
		// whole cohort, then send the share (Round does both). A stop that
		// lands mid exchange unwinds here as a protocol error.
		n.sstel.JournalMaskPhase(n.sv.node, "mask.start", n.trace, n.round, 0)
		start := time.Now()
		if err := n.perRound.Round(ctx, hdr, n.contrib); err != nil {
			return fmt.Errorf("mapper %d aggregation: %w", n.id, err)
		}
		n.sstel.JournalMaskPhase(n.sv.node, "mask.end", n.trace, n.round, time.Since(start))
		return nil
	}
	return fmt.Errorf("%w: mapper %d has no share path for Aggregation %d", ErrBadJob, n.id, n.agg)
}

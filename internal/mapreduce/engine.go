package mapreduce

// The round engine: the Reducer's side of every distributed job (DESIGN.md
// §14). One state machine runs every round, shaped by three values
// DriverOptions already carries (resolved once, in newPolicy):
//
//	deadline   StragglerTimeout, else none: how long a receive phase waits
//	           before the mappers still missing are demoted from the round's
//	           roster. Without one a round waits until it completes or the
//	           job's context ends.
//	quorum     the smallest roster a round may fold: MinQuorum under a
//	           straggler deadline; the whole cohort without one, which is what
//	           "strict" means — the first lost member already breaks quorum,
//	           and the job fails with whatever caused it.
//	staleness  0 for synchronous rounds; S > 0 lets a mapper answer with a
//	           contribution up to S rounds old, weighted κ^s (async.go).
//
// A round is
//
//	broadcast → [ready/roster handshake] → collect → settle → Combine
//
// The handshake exists because a masked share cancels only over the exact
// set of mappers that deliver: when mappers may be demoted, that set (the
// roster) must be agreed before shares are derived, and re-agreed — strictly
// smaller, so the roster alone tells the derivations apart — when a member
// dies in between. In every other configuration it is skipped outright (no
// KindReady or KindRoster frame, no roster bitset on the wire): without a
// straggler deadline nobody can be demoted, so the roster is the cohort; and
// plain shares do not depend on who else answers, so whoever delivers before
// the deadline is the roster.
//
// A demoted mapper is not dead: it still receives every broadcast and
// re-enters the roster the round it answers in time. Only an abort, an
// unreachable endpoint, or WriteOffAfter silent rounds demote permanently.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/ppml-go/ppml/internal/securesum"
	"github.com/ppml-go/ppml/internal/telemetry"
	"github.com/ppml-go/ppml/internal/transport"
)

// policy is the engine's whole parameterisation, resolved from DriverOptions
// by newPolicy — the one place Aggregation and MaskMode are range-checked and
// MinQuorum, Staleness and StalenessDecay defaulted and range-checked, for
// every caller above it.
type policy struct {
	deadline  time.Duration // per-phase receive window; 0 waits until the job's context ends
	elastic   bool          // a straggler deadline is set: a missed deadline demotes instead of failing
	quorum    int
	handshake bool    // ready/roster phase: elastic and masked
	staleness int     // bounded-staleness window S; 0 = synchronous
	decay     float64 // κ, the stale-share discount
	writeOff  int     // WriteOffAfter
}

func newPolicy(opts DriverOptions, agg Aggregation, m int) (policy, error) {
	p := policy{quorum: m, staleness: opts.Staleness, decay: opts.StalenessDecay, writeOff: opts.WriteOffAfter}
	switch {
	case agg != AggregationMasked && agg != AggregationPlain:
		return p, fmt.Errorf("%w: Aggregation %d", ErrBadJob, agg)
	case opts.MaskMode != MaskSeeded && opts.MaskMode != MaskPerRound:
		return p, fmt.Errorf("%w: MaskMode %v", ErrBadJob, opts.MaskMode)
	}
	if opts.StragglerTimeout > 0 {
		p.deadline, p.elastic = opts.StragglerTimeout, true
		p.handshake = agg == AggregationMasked
		if p.handshake && opts.MaskMode == MaskPerRound {
			// Per-round masks are exchanged over the fixed cohort: a member
			// that dies between its ready and its masks would stall every
			// other member's exchange. Elastic rounds derive seeded masks.
			return p, fmt.Errorf("%w: MaskPerRound with StragglerTimeout (per-round masks run strict rounds only; elastic rounds need MaskSeeded)", ErrBadJob)
		}
		p.quorum = opts.MinQuorum
		if p.quorum == 0 {
			// A masked roster of one would hand the Reducer a share whose
			// masks all cancelled locally — effectively plaintext — so the
			// privacy floor is two participants whenever masking is on.
			p.quorum = 1
			if agg == AggregationMasked && m >= 2 {
				p.quorum = 2
			}
		}
		if p.quorum < 1 || p.quorum > m {
			return p, fmt.Errorf("%w: MinQuorum %d with %d mappers", ErrBadJob, opts.MinQuorum, m)
		}
	}
	if p.staleness < 0 || p.staleness > 255 {
		return p, fmt.Errorf("%w: Staleness %d outside the wire stamp's range 0..255", ErrBadJob, p.staleness)
	}
	if p.staleness > 0 {
		// Bounded staleness rides on the handshake: the ready window IS the
		// staleness window, and the weight travels as a public stamp on the
		// ready declaration, which the other configurations never send.
		switch {
		case !p.elastic:
			return p, fmt.Errorf("%w: Staleness needs StragglerTimeout", ErrBadJob)
		case !p.handshake:
			return p, fmt.Errorf("%w: Staleness needs AggregationMasked", ErrBadJob)
		}
		if p.decay == 0 {
			p.decay = 0.5
		}
		if p.decay < 0 || p.decay > 1 {
			return p, fmt.Errorf("%w: StalenessDecay %g outside (0,1]", ErrBadJob, p.decay)
		}
	}
	return p, nil
}

// engine is the Reducer-side state of one job.
type engine struct {
	policy
	sessionEnv
	idOf    map[string]int
	ep      transport.Endpoint
	fold    folder
	scratch reduceScratch

	rounds       *telemetry.Counter
	roundDur     *telemetry.Histogram
	timeouts     *telemetry.Counter
	participants *telemetry.Gauge
	demotions    *telemetry.Counter
	rejoins      *telemetry.Counter
	staleHist    *telemetry.Histogram

	res *DriverResult

	round   int32            // the round in progress
	prev    transport.Roster // the roster the previous round folded
	dead    []bool           // permanently demoted (aborted, unreachable, or written off)
	silent  []int            // consecutive rounds each mapper missed the roster
	weights []float64        // per-mapper κ^s from this round's ready stamps; all 1 when nothing is stale
	lost    error            // what cost the round its most recent roster member: an abort or an unreachable endpoint
}

// sessionEnv is what the Reducer and every Mapper of one job share.
type sessionEnv struct {
	session uint64
	trace   telemetry.TraceID  // session trace identity, echoed on every send
	names   []string           // mapper endpoint names, by mapper id
	journal *telemetry.Journal // flight recorder; nil when telemetry is off
}

// header returns the session envelope for round r, carrying the trace id
// every mapper echoes back to the reducer.
func (s *sessionEnv) header(r int32) transport.Header {
	return transport.Header{Session: s.session, Round: r, Trace: s.trace}
}

// staleRoundFilter drops a session's frames older than *round (the setup
// round's seed exchange excepted); everything else stays buffered. Built once
// per node and swept with on every round advance: late frames of finished
// rounds and superseded rosters will never be claimed by any future filter.
func staleRoundFilter(session uint64, round *int32) transport.Filter {
	return func(m transport.Message) transport.Verdict {
		if m.Session == session && m.Round < *round && m.Round != securesum.SetupRound {
			return transport.Drop
		}
		return transport.Defer
	}
}

// filter scopes one receive phase of round r on the Reducer. Aborts of this
// session are delivered whatever round raised them; leftovers of earlier
// rounds are dropped and counted; a fast mapper's next-round frames wait in
// the reorder buffer. Of this round only the wanted kind is delivered, and a
// share only if stamped with the CURRENT roster: one derived over a superseded
// roster spans a telescope that can no longer cancel. The rosters of a round
// strictly shrink, so the stamp alone tells two derivations apart.
func (e *engine) filter(r int32, stamp transport.Roster, kind string) transport.Filter {
	return func(m transport.Message) transport.Verdict {
		if m.Session != e.session {
			return transport.Defer
		}
		if m.Kind == KindAbort {
			return transport.Accept
		}
		switch {
		case m.Round < r:
			return transport.Drop
		case m.Round > r:
			return transport.Defer
		case m.Kind == kind && (kind == KindReady || m.Roster.Equal(stamp)):
			return transport.Accept
		}
		return transport.Drop
	}
}

// window opens one receive window of length d (none when d is zero).
func window(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// expired reports whether err is the receive window closing, as opposed to
// the job's own context ending.
func expired(ctx context.Context, err error) bool {
	return errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil
}

// run executes the rounds from job.InitialState and returns the final state.
// The caller owns teardown.
func (e *engine) run(ctx context.Context, job IterativeJob) ([]float64, error) {
	m := len(e.names)
	state := append([]float64(nil), job.InitialState...)
	weighted, _ := job.Reducer.(WeightedReducer)
	if e.staleness > 0 && weighted == nil {
		return state, fmt.Errorf("%w: Staleness needs a WeightedReducer (the reducer cannot renormalize stale shares)", ErrBadJob)
	}
	e.prev, e.dead, e.silent, e.weights = transport.FullRoster(m), make([]bool, m), make([]int, m), make([]float64, m)
	// Per-session scratch, reused every round so the reduce hot loop does not
	// allocate.
	e.scratch.reach, e.scratch.got = transport.NewRoster(m), make([]bool, m)
	stale := staleRoundFilter(e.session, &e.round)
	evictor, _ := e.ep.(transport.Evictor)

	for iter := 0; iter < job.MaxIterations; iter++ {
		roundStart := time.Now()
		e.round = int32(iter)
		e.journal.Emit(reducerName, "round.start", e.trace, e.round, "", "", 0, 0)
		if evictor != nil {
			evictor.Evict(stale)
		}
		roster, sum, err := e.collectRound(ctx, state)
		// The communication round — broadcast through collected aggregate —
		// is what the histogram and the round.start/round.end pair measure;
		// a round that errors out is not observed as a completed round.
		if err != nil {
			if ctx.Err() != nil { // the job's context ended: stamp the round, once
				err = fmt.Errorf("mapreduce: round %d: %w", e.round, err)
			}
			return state, err
		}
		secs := time.Since(roundStart).Seconds()
		e.roundDur.Observe(secs)
		e.rounds.Inc()
		e.journal.Emit(reducerName, "round.end", e.trace, e.round, "", "", 0, secs)
		e.settle(roster)

		if weighted != nil {
			// Σκ^s over the folded roster; every weight is 1 unless a stale
			// share was stamped, so a synchronous round announces exactly
			// float64(roster.Count()).
			total := 0.0
			for i, w := range e.weights {
				if roster.Has(i) {
					total += w
				}
			}
			weighted.SetRoundWeight(total)
		}
		next, done, err := job.Reducer.Combine(iter, sum)
		if err != nil {
			return state, fmt.Errorf("%w: reducer at iteration %d: %v", ErrAborted, iter, err)
		}
		state = append(state[:0], next...)
		e.res.Iterations = iter + 1
		if done {
			e.res.Converged = true
			break
		}
	}
	return state, nil
}

// settle is the roster bookkeeping of a folded round: the participation
// gauge, the demote/rejoin transitions against the previous round, and the
// missed-heartbeat write-off.
func (e *engine) settle(roster transport.Roster) {
	e.participants.Set(float64(roster.Count()))
	for i, name := range e.names {
		switch {
		case e.prev.Has(i) && !roster.Has(i):
			e.demotions.Inc()
			e.res.Demotions++
			e.journal.Emit(reducerName, "mapper.demote", e.trace, e.round, name, "", 0, 0)
		case !e.prev.Has(i) && roster.Has(i):
			e.rejoins.Inc()
			e.res.Rejoins++
			e.journal.Emit(reducerName, "mapper.rejoin", e.trace, e.round, name, "", 0, 0)
		}
		// A mapper demoted WriteOffAfter rounds in a row is declared dead so
		// later rounds stop waiting a straggler window for it.
		switch {
		case e.dead[i]:
		case roster.Has(i):
			e.silent[i] = 0
		default:
			if e.silent[i]++; e.writeOff > 0 && e.silent[i] >= e.writeOff {
				e.dead[i] = true
				e.journal.Emit(reducerName, "mapper.writeoff", e.trace, e.round, name, "", 0, float64(e.silent[i]))
			}
		}
	}
	copy(e.prev, roster)
}

// belowQuorum is the one way a round fails for lack of shares. Under a
// straggler deadline that is ErrQuorum. Without one the quorum is the whole
// cohort, so the first lost share lands here and the job fails with what lost
// it.
func (e *engine) belowQuorum(n int) error {
	if !e.elastic && e.lost != nil {
		return e.lost
	}
	return fmt.Errorf("%w: roster of %d at round %d, need %d", ErrQuorum, n, e.round, e.quorum)
}

// maxStuckAttempts bounds the window re-arms of a phase that is below quorum,
// the only retries that demote nobody.
const maxStuckAttempts = 3

// setupGrace multiplies the ready deadline of round 0. The first readiness
// answer sits behind one-time costs — mapper boot, the pairwise mask-exchange
// setup, the first local solve — that the steady-state straggler window is
// not meant to police; demoting the whole cohort for a slow boot would abort
// a perfectly healthy job below quorum.
const setupGrace = 100

// collectRound executes the communication half of round e.round: broadcast,
// the handshake when the policy has one, and share collection with re-roster
// retries. It returns the final roster the sum was folded over.
func (e *engine) collectRound(ctx context.Context, state []float64) (transport.Roster, []float64, error) {
	r := e.round
	for i := range e.weights {
		e.weights[i] = 1
	}
	e.lost = nil
	hdr := e.header(r)
	if e.scratch.lent { // a mapper the last round did not fold may still decode them
		e.scratch.bcast = nil
	}
	e.scratch.bcast = appendVector(e.scratch.bcast[:0], state)
	roster := e.scratch.reach
	for i := range roster {
		roster[i] = 0
	}
	for i, name := range e.names {
		if e.dead[i] {
			continue
		}
		if err := e.ep.Send(ctx, name, KindBroadcast, hdr, e.scratch.bcast); err != nil {
			err = fmt.Errorf("mapreduce: broadcast: %w", err)
			if ctx.Err() != nil {
				return nil, nil, err
			}
			// An unreachable endpoint is a permanent demotion.
			e.dead[i], e.lost = true, err
			continue
		}
		roster.Add(i)
	}
	reached := roster.Count()
	if e.handshake && reached >= e.quorum {
		// Everyone who answers before the deadline makes the roster; the
		// deadline only matters when someone doesn't.
		grace := e.deadline
		if r == 0 {
			grace *= setupGrace
		}
		var err error
		if roster, err = e.collectReady(ctx, roster, grace); err != nil {
			return nil, nil, err
		}
	}
	// Every collection either completes or shrinks the roster, so the loop
	// terminates.
	for {
		if n := roster.Count(); n < e.quorum {
			return nil, nil, e.belowQuorum(n)
		}
		sum, done, err := e.collectShares(ctx, roster)
		if err != nil || done {
			e.scratch.lent = roster.Count() < reached
			return roster, sum, err
		}
	}
}

// collectReady gathers KindReady answers for the round from the eligible
// mappers until every one replied or the window closes, and returns the
// responders. A below-quorum roster is usually transient — the cohort can be
// mid catch-up after a demotion, with its late readys already queued or in
// flight — so the window is re-armed a bounded number of times (keeping the
// readys already collected) before the caller sees a roster it would abort
// on. eligible is consumed: aborting mappers are struck from it.
func (e *engine) collectReady(ctx context.Context, eligible transport.Roster, first time.Duration) (transport.Roster, error) {
	r := e.round
	roster := transport.NewRoster(len(e.names))
	filter := e.filter(r, nil, KindReady)
	wctx, cancel := window(ctx, first)
	defer func() { cancel() }()
	for rearms := 0; roster.Count() < eligible.Count(); {
		msg, err := e.ep.RecvMatch(wctx, filter)
		if err != nil {
			if !expired(ctx, err) {
				return nil, fmt.Errorf("mapreduce ready phase: %w", err)
			}
			e.timeouts.Inc()
			e.journal.Emit(reducerName, "round.timeout", e.trace, r, "", "ready", 0, 0)
			if roster.Count() >= e.quorum || rearms >= maxStuckAttempts {
				break // the deadline IS the roster declaration
			}
			rearms++
			cancel()
			wctx, cancel = window(ctx, e.deadline)
			continue
		}
		id, ok := e.idOf[msg.From]
		if !ok {
			return nil, fmt.Errorf("%w: ready from unknown party %q", ErrBadJob, msg.From)
		}
		switch msg.Kind {
		case KindReady:
			if eligible.Has(id) && !roster.Has(id) {
				roster.Add(id)
				// An async mapper reports how many rounds old the contribution
				// it is about to share is; the share is weighted κ^s in the
				// consensus normalization. The stamp is bounded by the window, so
				// in a synchronous job s = 0 and the weight 1 whatever arrives
				// (the declaration is empty, and there is no histogram).
				s := min(stalenessStamp(msg.Payload), e.staleness)
				//ppml:flow-ok the staleness stamp is a public round-age counter the mapper declares for weighting — a round-index difference, never derived from share contents
				e.staleHist.Observe(float64(s))
				e.weights[id] = decayWeight(e.decay, s)
				//ppml:flow-ok the round counter and staleness stamp are public round indices — coordination metadata, never derived from share contents
				e.journal.Emit(reducerName, "ready.recv", e.trace, r, msg.From, "", 0, float64(s))
			}
		case KindAbort:
			e.dead[id] = true
			eligible.Remove(id)
			roster.Remove(id)
		}
	}
	return roster, nil
}

// stalenessStamp decodes the optional round-age byte on a ready declaration
// — 0 for a synchronous (empty) declaration. The stamp is a public
// round-counter difference, never derived from share contents.
func stalenessStamp(payload []byte) int {
	if len(payload) >= 1 {
		return int(payload[0])
	}
	return 0
}

// decayWeight is κ^s, the weight of a share s rounds stale; both sides of the
// wire compute it the same way.
func decayWeight(decay float64, s int) float64 {
	w := 1.0
	for k := 0; k < s; k++ {
		w *= decay
	}
	return w
}

// void reports whether losing a member voids the collection in progress:
// always under the handshake (the masked telescope can no longer cancel, so
// the survivors must re-derive over the smaller roster), and for any fold
// once the roster is below quorum. Otherwise the fold is loose and keeps what
// it has — the responders ARE the roster.
func (e *engine) void(roster transport.Roster) bool {
	return e.handshake || roster.Count() < e.quorum
}

// collectShares runs one share collection over roster: declare it (handshake
// only), then fold shares until every member delivered or the window closes.
// A member lost mid-collection — silent past the deadline, or aborting — is
// struck from roster. It reports whether the collection is done: if not, it
// was voided and the caller collects again over the shrunken roster.
func (e *engine) collectShares(ctx context.Context, roster transport.Roster) ([]float64, bool, error) {
	r := e.round
	var stamp transport.Roster
	if e.handshake {
		stamp = roster
		hdr := e.header(r)
		hdr.Roster = roster
		e.journal.Emit(reducerName, "roster.declared", e.trace, r, "", "", 0, float64(roster.Count()))
		for i, name := range e.names {
			if !roster.Has(i) {
				continue
			}
			if err := e.ep.Send(ctx, name, KindRoster, hdr, nil); err != nil {
				if ctx.Err() != nil {
					return nil, false, fmt.Errorf("mapreduce: roster broadcast: %w", err)
				}
				e.dead[i] = true
				roster.Remove(i)
				return nil, false, nil
			}
		}
	}
	if err := e.fold.reset(roster.Count()); err != nil {
		return nil, false, err
	}
	got := e.scratch.got
	for i := range got {
		got[i] = false
	}
	filter := e.filter(r, stamp, e.fold.kind())
	wctx, cancel := window(ctx, e.deadline)
	defer func() { cancel() }()
	collected, rearms := 0, 0
	for collected < roster.Count() {
		msg, err := e.ep.RecvMatch(wctx, filter)
		if err != nil {
			if !expired(ctx, err) {
				return nil, false, fmt.Errorf("mapreduce reduce: %w", err)
			}
			e.timeouts.Inc()
			e.journal.Emit(reducerName, "round.timeout", e.trace, r, "", e.fold.kind(), 0, float64(collected))
			// Only a straggler deadline expires. Never demote below quorum on
			// a single one: the missing shares are usually in flight rather
			// than lost, and they stay foldable under this roster's stamp — so
			// re-arm the window and keep collecting before blaming anyone.
			// Demoting the whole cohort for one tight window would abort a
			// healthy job.
			if collected < e.quorum && rearms < maxStuckAttempts {
				rearms++
				e.journal.Emit(reducerName, "window.rearm", e.trace, r, "", "", 0, float64(rearms))
				cancel()
				wctx, cancel = window(ctx, e.deadline)
				continue
			}
			// Demote whoever went silent.
			for i := range got {
				if roster.Has(i) && !got[i] {
					roster.Remove(i)
				}
			}
			if e.void(roster) {
				return nil, false, nil
			}
			break
		}
		id, ok := e.idOf[msg.From]
		if !ok {
			return nil, false, fmt.Errorf("%w: share from unknown party %q", ErrBadJob, msg.From)
		}
		if msg.Kind == KindAbort {
			if e.dead[id] {
				continue
			}
			e.dead[id] = true
			if roster.Has(id) && !got[id] {
				// It will never contribute this round; stop waiting for it. (A
				// share it already delivered stays folded — it was computed
				// honestly before the mapper died.) An abort carries no
				// payload — the mapper's error may quote private values — so
				// the error names the aborter and the round.
				roster.Remove(id)
				e.lost = fmt.Errorf("%w: abort from %q at round %d", ErrAborted, msg.From, e.round)
				if e.void(roster) {
					return nil, false, nil
				}
			}
			continue
		}
		if got[id] || !roster.Has(id) {
			continue // duplicate or out-of-roster share: ignore
		}
		if err := e.fold.add(msg.Payload); err != nil {
			return nil, false, fmt.Errorf("share from %q: %w", msg.From, err)
		}
		got[id] = true
		collected++
		e.journal.Emit(reducerName, "share.recv", e.trace, r, msg.From, msg.Kind, int64(len(msg.Payload)), 0)
	}
	sum, err := e.fold.sum()
	return sum, true, err
}

package mapreduce

// The round engine: the Reducer's side of every distributed job (DESIGN.md
// §14). One state machine runs every round, shaped by two values
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
//
// A round is
//
//	broadcast → [ready/roster handshake] → collect → settle → Combine
//
// The handshake exists because a masked share cancels only over the exact
// set of mappers that deliver: when mappers may be demoted, that set (the
// roster) must be agreed before shares are derived, and re-agreed — strictly
// smaller, so the roster alone tells the derivations apart — when a member
// dies in between. Without a straggler deadline it is skipped outright (no
// KindReady or KindRoster frame, no roster bitset on the wire): nobody can be
// demoted, so the roster is the cohort. A plain share is the masked share
// without its masks — the same ring encoding, collected the same way — so
// the aggregation changes what a share hides, never the shape of a round.
//
// A demoted mapper is not dead: it is broadcast to again in rounds d+1, d+2,
// d+4, d+8, … after its demotion at round d, and re-enters the roster the
// first of those rounds it answers in time. Between them nobody waits for
// it, so a member that died for good costs 1 + ⌈log₂(R − d)⌉ straggler
// windows over R rounds, not R − d. A round whose due members fall short of
// the quorum recalls the others before it gives up. Only an abort or an
// unreachable endpoint demotes permanently.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/ppml-go/ppml/internal/securesum"
	"github.com/ppml-go/ppml/internal/telemetry"
	"github.com/ppml-go/ppml/internal/transport"
)

// policy is the engine's whole parameterisation, resolved from DriverOptions
// by newPolicy — the one place Aggregation is range-checked and MinQuorum
// defaulted and range-checked, for every caller above it. A straggler
// deadline (deadline > 0) is what makes rounds elastic: a missed deadline
// demotes instead of failing, and every round runs the handshake.
type policy struct {
	deadline time.Duration // per-phase receive window; 0 waits until the job's context ends
	quorum   int
}

func newPolicy(opts DriverOptions, agg Aggregation, m int) (policy, error) {
	p := policy{quorum: m}
	if agg != AggregationMasked && agg != AggregationPlain {
		return p, fmt.Errorf("%w: Aggregation %d", ErrBadJob, agg)
	}
	if opts.StragglerTimeout > 0 {
		p.deadline, p.quorum = opts.StragglerTimeout, opts.MinQuorum
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
	return p, nil
}

// engine is the Reducer-side state of one job.
type engine struct {
	policy
	sessionEnv
	idOf    map[string]int
	ep      transport.Endpoint
	col     *securesum.Collector // sums every share collection of the session
	kind    string               // the session's share kind: securesum.KindShare, or KindPlainShare
	scratch reduceScratch

	rounds       *telemetry.Counter
	roundDur     *telemetry.Histogram
	timeouts     *telemetry.Counter
	participants *telemetry.Gauge
	demotions    *telemetry.Counter
	rejoins      *telemetry.Counter

	res *DriverResult

	round   int32            // the round in progress
	prev    transport.Roster // the roster the previous round folded
	dead    []bool           // permanently demoted (aborted or unreachable)
	since   []int32          // the round each mapper outside prev was demoted
	sent    int              // mappers this round's broadcast reached
	lost    error            // what cost the round its most recent roster member: an abort or an unreachable endpoint
	aborter int              // the mapper whose abort lost reports; -1 when lost is not an abort

	// The receive phase in progress: the kind it waits for and the roster a
	// share must be stamped with (nil outside the handshake). phase is accept
	// as a Filter, built once per session.
	want  string
	stamp transport.Roster
	phase transport.Filter
	win   *recvWindow // the receive window under a straggler deadline; nil without one
}

// reduceScratch is the Reducer's per-session reuse state: the broadcast
// encoding, the round's reach set, ready roster and delivery marks, the share
// decode buffer and the aggregate. The broadcast bytes are shared with every
// mapper they reach, each of which decodes them before it shares: round r+1
// overwrites them only if round r folded every such mapper (else they are
// lent).
type reduceScratch struct {
	bcast    []byte
	lent     bool
	reach    transport.Roster
	ready    transport.Roster
	got      []bool
	shareBuf []uint64
	sum      []float64
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

// accept scopes the receive phase in progress (e.want, e.stamp) of round
// e.round on the Reducer. Aborts of this session are delivered whatever round
// raised them; leftovers of earlier rounds are dropped and counted; a fast
// mapper's next-round frames wait in the reorder buffer. Of this round only
// the wanted kind is delivered, and a share only if stamped with the CURRENT
// roster: one derived over a superseded roster spans a telescope that can no
// longer cancel. The rosters of a round strictly shrink, so the stamp alone
// tells two derivations apart.
func (e *engine) accept(m transport.Message) transport.Verdict {
	if m.Session != e.session {
		return transport.Defer
	}
	if m.Kind == KindAbort {
		return transport.Accept
	}
	switch {
	case m.Round < e.round:
		return transport.Drop
	case m.Round > e.round:
		return transport.Defer
	case m.Kind == e.want && (e.want == KindReady || m.Roster.Equal(e.stamp)):
		return transport.Accept
	}
	return transport.Drop
}

// recvWindow is the Reducer's receive window under a straggler deadline: one
// context.Context for the whole job, re-armed at the start of every receive
// phase, where a context.WithTimeout per phase would allocate its context,
// timer and done channel twice a round. It holds one timer, reset on each
// arm, follows the job's context through one context.AfterFunc, and makes a
// new done channel only after a window has actually expired. Err is
// context.DeadlineExceeded when the window expired and the job's error once
// the job's context ended, so expired tells the two apart as it would for a
// context.WithTimeout.
type recvWindow struct {
	job     context.Context
	stopJob func() bool // unregisters the AfterFunc on job

	mu       sync.Mutex
	timer    *time.Timer // nil until the first arm
	deadline time.Time   // of the current arm
	done     chan struct{}
	err      error
	disarmed bool
}

func newRecvWindow(job context.Context) *recvWindow {
	w := &recvWindow{job: job, done: make(chan struct{})}
	w.stopJob = context.AfterFunc(job, w.end)
	return w
}

// arm opens a window of length d: the timer is reset, and a window that
// expired gets a new done channel. Once the job's context has ended, the
// window stays closed with the job's error.
func (w *recvWindow) arm(d time.Duration) context.Context {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		if err := w.job.Err(); err != nil {
			w.err = err
			return w
		}
		w.done, w.err = make(chan struct{}), nil
	}
	w.deadline = time.Now().Add(d)
	if w.timer == nil {
		w.timer = time.AfterFunc(d, w.expire)
	} else {
		w.timer.Reset(d)
	}
	return w
}

// disarm releases the timer and the AfterFunc registration when the job
// ends; the window never fires after it.
func (w *recvWindow) disarm() {
	w.stopJob()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.disarmed = true
	if w.timer != nil {
		w.timer.Stop()
	}
}

// expire is the timer's function. A fire of a superseded arm that Reset came
// too late to stop runs before the current arm's deadline, and closes nothing.
func (w *recvWindow) expire() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.disarmed && !time.Now().Before(w.deadline) {
		w.close(context.DeadlineExceeded)
	}
}

// end is the AfterFunc on the job's context.
func (w *recvWindow) end() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.close(w.job.Err())
}

func (w *recvWindow) close(err error) {
	if w.err == nil {
		w.err = err
		close(w.done)
	}
}

func (w *recvWindow) Deadline() (time.Time, bool) {
	w.mu.Lock()
	dl := w.deadline
	w.mu.Unlock()
	if job, ok := w.job.Deadline(); ok && job.Before(dl) {
		return job, true
	}
	return dl, !dl.IsZero()
}

func (w *recvWindow) Done() <-chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.done
}

func (w *recvWindow) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

func (w *recvWindow) Value(key any) any { return w.job.Value(key) }

// window opens a receive window of length d: the job's window, re-armed, or
// without a straggler deadline the job's context itself.
func (e *engine) window(ctx context.Context, d time.Duration) context.Context {
	if e.win == nil {
		return ctx
	}
	return e.win.arm(d)
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
	e.prev, e.dead, e.since = transport.FullRoster(m), make([]bool, m), make([]int32, m)
	// Per-session scratch, reused every round so the reduce hot loop does not
	// allocate.
	e.scratch.reach, e.scratch.got = transport.NewRoster(m), make([]bool, m)
	if e.deadline > 0 {
		e.scratch.ready = transport.NewRoster(m)
		e.win = newRecvWindow(ctx)
		defer e.win.disarm()
	}
	stale := staleRoundFilter(e.session, &e.round)
	evictor, _ := e.ep.(transport.Evictor)
	e.phase = e.accept

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

		next, done, err := job.Reducer.Combine(iter, sum, roster.Count())
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
// gauge and the demote/rejoin transitions against the previous round, each
// demotion stamped with its round for the rejoin schedule.
func (e *engine) settle(roster transport.Roster) {
	e.participants.Set(float64(roster.Count()))
	for i, name := range e.names {
		switch {
		case e.prev.Has(i) && !roster.Has(i):
			e.since[i] = e.round
			e.demotions.Inc()
			e.res.Demotions++
			e.journal.Emit(reducerName, "mapper.demote", e.trace, e.round, name, "", 0, 0)
		case !e.prev.Has(i) && roster.Has(i):
			e.rejoins.Inc()
			e.res.Rejoins++
			e.journal.Emit(reducerName, "mapper.rejoin", e.trace, e.round, name, "", 0, 0)
		}
	}
	copy(e.prev, roster)
}

// belowQuorum is the one way a round fails for lack of shares. Under a
// straggler deadline that is ErrQuorum. Without one the quorum is the whole
// cohort, so the first lost share lands here and the job fails with what lost
// it.
func (e *engine) belowQuorum(n int) error {
	if e.deadline == 0 && e.lost != nil {
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
// the handshake under a straggler deadline, and share collection with
// re-roster retries. It returns the final roster the sum was folded over.
func (e *engine) collectRound(ctx context.Context, state []float64) (transport.Roster, []float64, error) {
	r := e.round
	e.lost, e.aborter, e.sent = nil, -1, 0
	if e.scratch.lent { // a mapper the last round did not fold may still decode them
		e.scratch.bcast = nil
	}
	e.scratch.bcast = appendVector(e.scratch.bcast[:0], state)
	roster := e.scratch.reach
	for i := range roster {
		roster[i] = 0
	}
	if err := e.reach(ctx, roster, false); err != nil {
		return nil, nil, err
	}
	if roster.Count() < e.quorum {
		if err := e.reach(ctx, roster, true); err != nil {
			return nil, nil, err
		}
	}
	if e.deadline > 0 && roster.Count() >= e.quorum {
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
			e.scratch.lent = roster.Count() < e.sent
			return roster, sum, err
		}
	}
}

// due reports whether the round's broadcast goes to mapper i on schedule:
// every round while it is in the roster, and rounds d+1, d+2, d+4, … after
// its demotion at round d. The broadcast set is exactly what the ready window
// waits for and admits, so a member off schedule costs no window.
func (e *engine) due(i int) bool {
	k := e.round - e.since[i]
	return e.prev.Has(i) || k&(k-1) == 0
}

// reach broadcasts the round's state to every live mapper outside set that is
// due (recall false) or off schedule (recall true), and adds each it reached
// to set. A recall is the fallback of a round whose due members cannot make
// the quorum: a member that recovered between its due rounds answers it like
// any other. An unreachable endpoint is a permanent demotion.
func (e *engine) reach(ctx context.Context, set transport.Roster, recall bool) error {
	hdr := e.header(e.round)
	for i, name := range e.names {
		if e.dead[i] || set.Has(i) || e.due(i) == recall {
			continue
		}
		if err := e.ep.Send(ctx, name, KindBroadcast, hdr, e.scratch.bcast); err != nil {
			err = fmt.Errorf("mapreduce: broadcast: %w", err)
			if ctx.Err() != nil {
				return err
			}
			e.dead[i], e.lost, e.aborter = true, err, -1
			continue
		}
		set.Add(i)
		e.sent++
	}
	return nil
}

// collectReady gathers KindReady answers for the round from the eligible
// mappers until every one replied or the window closes, and returns the
// responders. A below-quorum roster is usually transient — the cohort can be
// mid catch-up after a demotion, with its late readys already queued or in
// flight — so the window is re-armed a bounded number of times (keeping the
// readys already collected) before the caller sees a roster it would abort
// on, and each re-arm first recalls the live members the rejoin schedule
// passed by. eligible is consumed: recalled mappers are added to it, aborting
// mappers are struck from it.
func (e *engine) collectReady(ctx context.Context, eligible transport.Roster, first time.Duration) (transport.Roster, error) {
	r := e.round
	roster := e.scratch.ready
	for i := range roster {
		roster[i] = 0
	}
	e.want, e.stamp = KindReady, nil
	wctx := e.window(ctx, first)
	for rearms := 0; roster.Count() < eligible.Count(); {
		msg, err := e.ep.RecvMatch(wctx, e.phase)
		if err != nil {
			if !expired(ctx, err) {
				return nil, fmt.Errorf("mapreduce ready phase: %w", err)
			}
			e.timeouts.Inc()
			e.journal.Emit(reducerName, "round.timeout", e.trace, r, "", "ready", 0, 0)
			if roster.Count() >= e.quorum || rearms >= maxStuckAttempts {
				break // the deadline IS the roster declaration
			}
			if err := e.reach(ctx, eligible, true); err != nil {
				return nil, err
			}
			rearms++
			wctx = e.window(ctx, e.deadline)
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
				e.journal.Emit(reducerName, "ready.recv", e.trace, r, msg.From, "", 0, 0)
			}
		case KindAbort:
			e.dead[id] = true
			eligible.Remove(id)
			roster.Remove(id)
		}
		msg.Release()
	}
	return roster, nil
}

// collectShares runs one share collection over roster: declare it (under a
// straggler deadline), then fold shares until every member delivered or the
// window closes. A member lost mid-collection — silent past the deadline, or
// aborting — is struck from roster and voids the collection: a masked
// telescope no longer cancels, so the survivors re-derive over the smaller
// roster, and without a deadline the quorum is the cohort. It reports whether
// the collection is done: if not, the caller collects again over the
// shrunken roster.
func (e *engine) collectShares(ctx context.Context, roster transport.Roster) ([]float64, bool, error) {
	r := e.round
	var stamp transport.Roster
	if e.deadline > 0 {
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
	if err := e.col.ResetFor(roster.Count()); err != nil {
		return nil, false, err
	}
	got := e.scratch.got
	for i := range got {
		got[i] = false
	}
	e.want, e.stamp = e.kind, stamp
	wctx := e.window(ctx, e.deadline)
	collected, rearms := 0, 0
	for collected < roster.Count() {
		msg, err := e.ep.RecvMatch(wctx, e.phase)
		if err != nil {
			if !expired(ctx, err) {
				return nil, false, fmt.Errorf("mapreduce reduce: %w", err)
			}
			e.timeouts.Inc()
			e.journal.Emit(reducerName, "round.timeout", e.trace, r, "", e.kind, 0, float64(collected))
			// Only a straggler deadline expires. Never demote below quorum on
			// a single one: the missing shares are usually in flight rather
			// than lost, and they stay foldable under this roster's stamp — so
			// re-arm the window and keep collecting before blaming anyone.
			// Demoting the whole cohort for one tight window would abort a
			// healthy job.
			if collected < e.quorum && rearms < maxStuckAttempts {
				rearms++
				e.journal.Emit(reducerName, "window.rearm", e.trace, r, "", "", 0, float64(rearms))
				wctx = e.window(ctx, e.deadline)
				continue
			}
			// Demote whoever went silent.
			for i := range got {
				if roster.Has(i) && !got[i] {
					roster.Remove(i)
				}
			}
			return nil, false, nil
		}
		id, ok := e.idOf[msg.From]
		if !ok {
			return nil, false, fmt.Errorf("%w: share from unknown party %q", ErrBadJob, msg.From)
		}
		if msg.Kind == KindAbort {
			msg.Release()
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
				e.lost, e.aborter = fmt.Errorf("%w: abort from %q at round %d", ErrAborted, msg.From, e.round), id
				return nil, false, nil
			}
			continue
		}
		if got[id] || !roster.Has(id) {
			msg.Release()
			continue // duplicate or out-of-roster share: ignore
		}
		share, err := securesum.DecodeSharesInto(e.scratch.shareBuf, msg.Payload)
		if err == nil {
			e.scratch.shareBuf = share
			err = e.col.Add(share)
		}
		if err != nil {
			return nil, false, fmt.Errorf("share from %q: %w", msg.From, err)
		}
		got[id] = true
		collected++
		e.journal.Emit(reducerName, "share.recv", e.trace, r, msg.From, msg.Kind, int64(len(msg.Payload)), 0)
		msg.Release()
	}
	sum, err := e.col.SumInto(e.scratch.sum)
	if err != nil {
		return nil, false, err
	}
	e.scratch.sum = sum
	return sum, true, nil
}

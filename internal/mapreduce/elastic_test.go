package mapreduce

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ppml-go/ppml/internal/securesum"
	"github.com/ppml-go/ppml/internal/telemetry"
	"github.com/ppml-go/ppml/internal/transport"
)

// slowMapper contributes value − state (the averaging consensus) but sleeps
// slowOn[iter] before answering, simulating a straggler on chosen rounds.
// During elastic catch-up the driver replays Contribution for the rounds the
// mapper slept through, so slowOn keys are the only slow rounds.
type slowMapper struct {
	value  []float64
	slowOn map[int]time.Duration
	delay  time.Duration // unconditional per-call sleep
}

func (m *slowMapper) Contribution(iter int, state []float64) ([]float64, error) {
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	if d := m.slowOn[iter]; d > 0 {
		time.Sleep(d)
	}
	out := make([]float64, len(m.value))
	for i := range out {
		out[i] = m.value[i] - state[i]
	}
	return out, nil
}

// elasticAveragingReducer is the roster-aware averaging consensus: it divides
// the aggregate by the mappers the round folded (Combine's folded — the live
// participant count) instead of the fixed cohort, and optionally refuses to
// declare convergence until the full cohort is back — so a test can assert the post-rejoin state
// rather than a partial-roster fixed point.
type elasticAveragingReducer struct {
	m, n      int
	tol       float64
	needFull  bool
	lastState []float64
	// participants records every Combine's folded count, in round order.
	participants []int
}

func newElasticAveragingReducer(m int, needFull bool) *elasticAveragingReducer {
	return &elasticAveragingReducer{m: m, n: m, tol: 1e-9, needFull: needFull}
}

func (r *elasticAveragingReducer) Combine(iter int, sum []float64, folded int) ([]float64, bool, error) {
	r.n = folded
	r.participants = append(r.participants, r.n)
	delta := 0.0
	next := make([]float64, len(sum))
	for i := range sum {
		step := sum[i] / float64(r.n)
		prev := 0.0
		if r.lastState != nil {
			prev = r.lastState[i]
		}
		next[i] = prev + step
		delta += step * step
	}
	r.lastState = next
	done := delta < r.tol*r.tol && (!r.needFull || r.n == r.m)
	return next, done, nil
}

// runElastic executes the job over a fresh in-proc network with a registry
// attached and fails the test on any job error.
func runElastic(t *testing.T, job IterativeJob, opts DriverOptions) (*DriverResult, *telemetry.Snapshot) {
	t.Helper()
	reg := telemetry.NewRegistry()
	opts.Telemetry = reg
	net := transport.NewInProc()
	defer net.Close()
	opts.Network = net
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := RunDistributed(ctx, job, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, reg.Snapshot()
}

// TestElasticDemoteAndRejoin is the elastic driver's core contract, under
// seeded masks (the only masks elastic rounds run): a mapper that sleeps
// through its straggler deadline is demoted for the rounds it misses, the
// survivors keep training over partial rosters, the straggler rejoins once it
// catches up, and the job converges to the FULL-cohort consensus. The
// roster-churn results, the elastic telemetry counters and the transport stale
// counter must all agree with that story.
func TestElasticDemoteAndRejoin(t *testing.T) {
	t.Run("seeded", func(t *testing.T) {
		values := [][]float64{{1, 9}, {3, 11}, {5, 13}, {7, 15}}
		m := len(values)
		mappers := make([]IterativeMapper, m)
		for i := range values {
			sm := &slowMapper{value: values[i]}
			if i == m-1 {
				// Sleeps through several straggler windows, then wakes and
				// catches up through the buffered broadcasts.
				sm.slowOn = map[int]time.Duration{1: 1200 * time.Millisecond}
			}
			mappers[i] = sm
		}
		red := newElasticAveragingReducer(m, true)
		job := IterativeJob{
			Mappers:         mappers,
			Reducer:         red,
			InitialState:    make([]float64, 2),
			ContributionDim: 2,
			MaxIterations:   80,
		}
		res, snap := runElastic(t, job, DriverOptions{
			StragglerTimeout: 200 * time.Millisecond,
		})
		if !res.Converged {
			t.Fatalf("did not converge in %d iterations", res.Iterations)
		}
		want := []float64{4, 12} // mean over the FULL cohort
		for i := range want {
			if math.Abs(res.FinalState[i]-want[i]) > 1e-3 {
				t.Errorf("state[%d] = %g, want %g", i, res.FinalState[i], want[i])
			}
		}
		if res.Demotions < 1 || res.Rejoins < 1 {
			t.Errorf("Demotions = %d, Rejoins = %d, want at least one of each", res.Demotions, res.Rejoins)
		}
		// The job only converges on a full roster, so every demotion was
		// eventually matched by a rejoin.
		if res.Demotions != res.Rejoins {
			t.Errorf("Demotions = %d != Rejoins = %d with a full final roster", res.Demotions, res.Rejoins)
		}
		// Wiretap parity: the counters are the same events the result
		// fields recorded, observed through the registry.
		if got := snap.CounterTotal("ppml_mapper_demotions_total"); got != int64(res.Demotions) {
			t.Errorf("ppml_mapper_demotions_total = %d, res.Demotions = %d", got, res.Demotions)
		}
		if got := snap.CounterTotal("ppml_mapper_rejoins_total"); got != int64(res.Rejoins) {
			t.Errorf("ppml_mapper_rejoins_total = %d, res.Rejoins = %d", got, res.Rejoins)
		}
		if got, ok := snap.GaugeValue("ppml_round_participants"); !ok || got != float64(m) {
			t.Errorf("ppml_round_participants = %v (ok=%v), want %d on the full final round", got, ok, m)
		}
		// Combine saw the shrunken rounds.
		shrunk := false
		for _, n := range red.participants {
			if n < m {
				shrunk = true
			}
			if n < 1 || n > m {
				t.Errorf("folded %d outside [1, %d]", n, m)
			}
		}
		if !shrunk {
			t.Error("reducer never saw a partial roster despite demotions")
		}
		// Regression for the round-advance eviction: the straggler's
		// catch-up replays readiness for rounds the reducer already
		// finished; those frames must be dropped and counted stale, not
		// stashed until the endpoint closes.
		if res.Net.StaleDropped < 1 {
			t.Errorf("StaleDropped = %d, want at least 1 from the straggler's stale catch-up traffic", res.Net.StaleDropped)
		}
	})
}

// broadcastLog is the ground truth of TestElasticLateMapperReadsItsOwnBroadcast:
// the state the Reducer broadcast for every round, and the (round, state)
// every Contribution was handed.
type broadcastLog struct {
	mu     sync.Mutex
	sent   map[int][]float64
	handed []handedState
}

type handedState struct {
	mapper, iter int
	state        []float64
}

func (l *broadcastLog) broadcast(iter int, state []float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sent[iter] = append([]float64(nil), state...)
}

func (l *broadcastLog) hand(mapper, iter int, state []float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.handed = append(l.handed, handedState{mapper, iter, append([]float64(nil), state...)})
}

// loggedMapper is the averaging consensus, logging every state it is handed.
// With a gate, its Contribution for round blockOn waits until the gate
// closes, and caughtUp is set once it has solved a round after that.
type loggedMapper struct {
	id       int
	value    []float64
	log      *broadcastLog
	gate     <-chan struct{}
	blockOn  int
	caughtUp *atomic.Bool
}

func (m *loggedMapper) Contribution(iter int, state []float64) ([]float64, error) {
	m.log.hand(m.id, iter, state)
	if m.gate != nil && iter == m.blockOn {
		// Bounded, so a job that fails before the gate opens cannot strand
		// this node in Contribution and hang RunDistributed's drain.
		select {
		case <-m.gate:
		case <-time.After(time.Minute):
		}
	}
	out := make([]float64, len(m.value))
	for i := range out {
		out[i] = m.value[i] - state[i]
	}
	if m.gate != nil && iter > m.blockOn {
		m.caughtUp.Store(true)
	}
	return out, nil
}

// loggingReducer takes half a step towards the roster's mean, so no two
// rounds broadcast the same state, and logs every state it broadcasts. It
// opens the gate in Combine(openOn) and finishes once done reports true.
type loggingReducer struct {
	log    *broadcastLog
	prev   []float64
	n      int
	gate   chan struct{}
	openOn int
	done   *atomic.Bool
}

func (r *loggingReducer) Combine(iter int, sum []float64, folded int) ([]float64, bool, error) {
	r.n = folded
	next := make([]float64, len(sum))
	for i := range sum {
		next[i] = r.prev[i] + sum[i]/float64(2*r.n)
	}
	r.prev = next
	r.log.broadcast(iter+1, next)
	if iter == r.openOn {
		close(r.gate)
	}
	return next, r.done.Load(), nil
}

// TestElasticLateMapperReadsItsOwnBroadcast: a mapper demoted while it solves
// catches up through the broadcasts queued for it, and each must still hold
// its own round's state. Over the in-process network a broadcast's bytes are
// shared with every mapper it reaches, so the Reducer may reuse them only
// after a round that folded every one of those mappers. Mapper 2 blocks in
// round 1 until Combine(3); demoted at round 1, it is broadcast rounds 2, 3
// and 5 of the rounds run meanwhile and after. Every Contribution in the job
// must be handed exactly the state broadcast for its round.
func TestElasticLateMapperReadsItsOwnBroadcast(t *testing.T) {
	t.Parallel()
	values := [][]float64{{1, 9}, {3, 11}, {5, 13}, {7, 15}}
	const late, maxRounds = 2, 40
	log := &broadcastLog{sent: map[int][]float64{0: {0, 0}}}
	gate := make(chan struct{})
	var caughtUp atomic.Bool
	mappers := make([]IterativeMapper, len(values))
	for i, v := range values {
		lm := &loggedMapper{id: i, value: v, log: log}
		if i == late {
			lm.gate, lm.blockOn, lm.caughtUp = gate, 1, &caughtUp
		}
		mappers[i] = lm
	}
	job := IterativeJob{
		Mappers:         mappers,
		Reducer:         &loggingReducer{log: log, prev: []float64{0, 0}, gate: gate, openOn: 3, done: &caughtUp},
		InitialState:    []float64{0, 0},
		ContributionDim: 2,
		MaxIterations:   maxRounds,
	}
	res, _ := runElastic(t, job, DriverOptions{StragglerTimeout: 100 * time.Millisecond})
	if !res.Converged {
		t.Fatalf("mapper %d never solved a round after its release (%d rounds)", late, res.Iterations)
	}
	if res.Demotions < 1 {
		t.Errorf("Demotions = %d, want mapper %d demoted while it blocks", res.Demotions, late)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	caught := 0
	for _, h := range log.handed {
		if h.mapper == late && h.iter > 1 && h.iter <= 4 {
			caught++
		}
		want, ok := log.sent[h.iter]
		if !ok {
			t.Errorf("mapper %d handed round %d, which was never broadcast", h.mapper, h.iter)
			continue
		}
		for i := range want {
			if math.Float64bits(h.state[i]) != math.Float64bits(want[i]) {
				t.Errorf("mapper %d handed %v for round %d, whose broadcast was %v", h.mapper, h.state, h.iter, want)
				break
			}
		}
	}
	if caught == 0 {
		t.Errorf("mapper %d solved none of the rounds broadcast while it blocked", late)
	}
}

// TestElasticShareLostAfterReady pins the seeded re-roster path
// deterministically: a mapper whose readiness declarations arrive but whose
// shares vanish (a crash between phases, injected with a kind-scoped chaos
// drop) is demoted when the share deadline closes, and the survivors re-derive
// over the shrunken roster — in every due round (the rounds the faulty mapper
// is broadcast to again after its demotion), since it keeps answering ready.
func TestElasticShareLostAfterReady(t *testing.T) {
	t.Parallel()
	values := [][]float64{{2}, {4}, {9}}
	m := len(values)
	mappers := make([]IterativeMapper, m)
	for i := range values {
		mappers[i] = &slowMapper{value: values[i]}
	}
	red := newElasticAveragingReducer(m, false)
	job := IterativeJob{
		Mappers:         mappers,
		Reducer:         red,
		InitialState:    []float64{0},
		ContributionDim: 1,
		MaxIterations:   20,
	}
	reg := telemetry.NewRegistry(telemetry.WithJournal(4096))
	chaos := transport.NewChaos(transport.NewInProc())
	defer chaos.Close()
	chaos.KillOutboundKind("mapper-2", securesum.KindShare)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := RunDistributed(ctx, job, DriverOptions{
		Network:          chaos,
		Telemetry:        reg,
		StragglerTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d iterations", res.Iterations)
	}
	// The survivors' consensus: mean of {2, 4}. A share derived over the
	// superseded roster would leave mapper-2's masks uncancelled in the sum.
	if math.Abs(res.FinalState[0]-3) > 1e-3 {
		t.Errorf("state = %g, want 3 (the survivors' mean)", res.FinalState[0])
	}
	if res.Demotions < 1 {
		t.Errorf("Demotions = %d, want at least 1 (the mapper whose shares vanish)", res.Demotions)
	}
	for _, n := range red.participants {
		if n != m-1 {
			t.Errorf("folded %d, want every fold over the %d survivors", n, m-1)
		}
	}
	// Every round re-declares: the roster sizes journalled per round, in
	// emission order, number at least two and strictly decrease.
	declared := make([][]float64, res.Iterations)
	for _, e := range reg.Journal().Snapshot() {
		if e.Node == reducerName && e.Event == "roster.declared" && int(e.Round) < len(declared) {
			declared[e.Round] = append(declared[e.Round], e.Value)
		}
	}
	for r, sizes := range declared {
		if len(sizes) < 2 {
			t.Errorf("round %d declared rosters of sizes %v, want a re-declaration", r, sizes)
		}
		for i := 1; i < len(sizes); i++ {
			if sizes[i] >= sizes[i-1] {
				t.Errorf("round %d declared rosters of sizes %v, want strictly decreasing", r, sizes)
				break
			}
		}
	}
}

// TestElasticRejoinBackoff pins the rejoin schedule: a mapper demoted at
// round d is broadcast to, and so waited for, only in rounds d+1, d+2, d+4, …
// after it. mapper-2 is killed once round 0 folds, so it is demoted at round 1
// and costs a straggler window in round 1 and its due rounds 2, 3 and 5 of
// six, not in every remaining round. Healed at round 4, it is not broadcast to
// until its due round 5, and rejoins there.
func TestElasticRejoinBackoff(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name     string
		healAt   int32   // 0: never
		state    float64 // the survivors' mean, or the full cohort's once healed
		timeouts int64
		rejoins  int
	}{
		{name: "dead", state: 3, timeouts: 4},
		{name: "healed", healAt: 4, state: 5, timeouts: 3, rejoins: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			values := [][]float64{{2}, {4}, {9}}
			m := len(values)
			mappers := make([]IterativeMapper, m)
			for i := range values {
				mappers[i] = &slowMapper{value: values[i]}
			}
			chaos := transport.NewChaos(transport.NewInProc())
			defer chaos.Close()
			// mapper-2 finished the seed exchange and its round-0 share; from
			// round 1 on its sends and receives vanish silently.
			chaos.AtRound(1, func() { chaos.Kill("mapper-2") })
			if tc.healAt > 0 {
				chaos.AtRound(tc.healAt, func() { chaos.Heal("mapper-2") })
			}
			red := newElasticAveragingReducer(m, false)
			red.tol = 0 // run the whole budget
			const rounds = 6
			job := IterativeJob{
				Mappers:         mappers,
				Reducer:         red,
				InitialState:    []float64{0},
				ContributionDim: 1,
				MaxIterations:   rounds,
			}
			reg := telemetry.NewRegistry(telemetry.WithJournal(4096))
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			res, err := RunDistributed(ctx, job, DriverOptions{
				Network:          chaos,
				Telemetry:        reg,
				StragglerTimeout: 150 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations != rounds {
				t.Fatalf("ran %d of %d rounds", res.Iterations, rounds)
			}
			if math.Abs(res.FinalState[0]-tc.state) > 1e-3 {
				t.Errorf("state = %g, want %g", res.FinalState[0], tc.state)
			}
			if res.Demotions != 1 || res.Rejoins != tc.rejoins {
				t.Errorf("Demotions = %d, Rejoins = %d, want 1 and %d", res.Demotions, res.Rejoins, tc.rejoins)
			}
			if got := reg.Snapshot().CounterTotal("ppml_round_timeouts_total"); got != tc.timeouts {
				t.Errorf("ppml_round_timeouts_total = %d, want exactly %d (one per due round while mapper-2 is gone)", got, tc.timeouts)
			}
			var rejoined []int32
			for _, e := range reg.Journal().Snapshot() {
				if e.Event == "mapper.rejoin" {
					rejoined = append(rejoined, e.Round)
				}
			}
			if want := tc.rejoins; len(rejoined) != want || want > 0 && rejoined[0] != 5 {
				t.Errorf("mapper.rejoin at rounds %v, want %d at round 5", rejoined, want)
			}
		})
	}
}

// TestElasticRecallBelowQuorum: two overlapping demotions leave a round whose
// due members are exactly the quorum. mapper-2 is killed at round 1 (due 2, 3,
// 5, 9) and mapper-3 at round 2 (due 3, 4, 6, 10); both heal at round 7, which
// is due for neither, and survivor mapper-1 dies there. Only the two healed
// members can fill round 7's roster, so the round recalls them before it
// re-arms its window, and both rejoin at round 7 instead of the job failing
// with ErrQuorum.
func TestElasticRecallBelowQuorum(t *testing.T) {
	t.Parallel()
	for name, agg := range map[string]Aggregation{"masked": AggregationMasked, "plain": AggregationPlain} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			values := [][]float64{{2}, {4}, {6}, {8}}
			m := len(values)
			mappers := make([]IterativeMapper, m)
			for i := range values {
				mappers[i] = &slowMapper{value: values[i]}
			}
			chaos := transport.NewChaos(transport.NewInProc())
			defer chaos.Close()
			chaos.AtRound(1, func() { chaos.Kill("mapper-2") })
			chaos.AtRound(2, func() { chaos.Kill("mapper-3") })
			chaos.AtRound(7, func() {
				chaos.Heal("mapper-2")
				chaos.Heal("mapper-3")
				chaos.Kill("mapper-1")
			})
			red := newElasticAveragingReducer(m, false)
			red.tol = 0 // run the whole budget
			const rounds = 9
			job := IterativeJob{
				Mappers:         mappers,
				Reducer:         red,
				InitialState:    []float64{0},
				ContributionDim: 1,
				MaxIterations:   rounds,
			}
			reg := telemetry.NewRegistry(telemetry.WithJournal(4096))
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			res, err := RunDistributed(ctx, job, DriverOptions{
				Network:          chaos,
				Telemetry:        reg,
				Aggregation:      agg,
				StragglerTimeout: 150 * time.Millisecond,
				MinQuorum:        2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations != rounds {
				t.Fatalf("ran %d of %d rounds", res.Iterations, rounds)
			}
			var rejoined []string
			for _, e := range reg.Journal().Snapshot() {
				if e.Event == "mapper.rejoin" && e.Round == 7 {
					rejoined = append(rejoined, e.Peer)
				}
			}
			if len(rejoined) != 2 || rejoined[0] != "mapper-2" || rejoined[1] != "mapper-3" {
				t.Errorf("mapper.rejoin at round 7 for %v, want [mapper-2 mapper-3]", rejoined)
			}
		})
	}
}

// TestElasticQuorumFailure: a masked roster of one would hand the Reducer an
// effectively unmasked share, so the driver fails the round with ErrQuorum
// instead of folding it.
func TestElasticQuorumFailure(t *testing.T) {
	job := IterativeJob{
		Mappers: []IterativeMapper{
			&slowMapper{value: []float64{1}},
			&slowMapper{value: []float64{2}, delay: time.Second},
		},
		Reducer:         newElasticAveragingReducer(2, false),
		InitialState:    []float64{0},
		ContributionDim: 1,
		MaxIterations:   10,
	}
	net := transport.NewInProc()
	defer net.Close()
	_, err := RunDistributed(context.Background(), job, DriverOptions{
		Network:          net,
		StragglerTimeout: 100 * time.Millisecond,
		MinQuorum:        2,
	})
	if !errors.Is(err, ErrQuorum) {
		t.Fatalf("err = %v, want ErrQuorum", err)
	}
}

// TestElasticMinQuorumValidation: the configurations the engine's policy
// rejects before opening any endpoint — a quorum the cohort cannot satisfy
// and an out-of-range aggregation.
func TestElasticMinQuorumValidation(t *testing.T) {
	job := IterativeJob{
		Mappers:         []IterativeMapper{&slowMapper{value: []float64{1}}, &slowMapper{value: []float64{2}}},
		Reducer:         newElasticAveragingReducer(2, false),
		InitialState:    []float64{0},
		ContributionDim: 1,
		MaxIterations:   2,
	}
	for _, tc := range []struct {
		name string
		opts DriverOptions
	}{
		{"quorum above the cohort", DriverOptions{StragglerTimeout: 50 * time.Millisecond, MinQuorum: 5}},
		{"aggregation out of range", DriverOptions{Aggregation: Aggregation(9)}},
		{"aggregation past plain", DriverOptions{Aggregation: AggregationPlain + 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunDistributed(context.Background(), job, tc.opts)
			if !errors.Is(err, ErrBadJob) {
				t.Fatalf("err = %v, want ErrBadJob", err)
			}
		})
	}
}

// TestElasticAbortIsPermanentDemotion: a mapper whose Contribution fails past
// its retry budget aborts itself out of the job; under the elastic contract
// that is a roster event, not a job failure — the survivors finish without
// ever waiting a straggler window for the dead node again.
func TestElasticAbortIsPermanentDemotion(t *testing.T) {
	job := IterativeJob{
		Mappers: []IterativeMapper{
			&slowMapper{value: []float64{2}},
			&slowMapper{value: []float64{4}},
			&failingMapper{failAt: 0},
		},
		Reducer:         newElasticAveragingReducer(3, false),
		InitialState:    []float64{0},
		ContributionDim: 1,
		MaxIterations:   20,
	}
	res, snap := runElastic(t, job, DriverOptions{
		StragglerTimeout: 200 * time.Millisecond,
	})
	if !res.Converged {
		t.Fatalf("did not converge in %d iterations", res.Iterations)
	}
	// The survivors' consensus: mean of {2, 4}.
	if math.Abs(res.FinalState[0]-3) > 1e-3 {
		t.Errorf("state = %g, want 3 (the survivors' mean)", res.FinalState[0])
	}
	if res.Demotions != 1 || res.Rejoins != 0 {
		t.Errorf("Demotions = %d, Rejoins = %d, want 1 and 0 (aborts are permanent)", res.Demotions, res.Rejoins)
	}
	if got, ok := snap.GaugeValue("ppml_round_participants"); !ok || got != 2 {
		t.Errorf("ppml_round_participants = %v (ok=%v), want 2", got, ok)
	}
}

// TestElasticPlainAggregation: a plain job under a straggler deadline runs
// the masked job's rounds — ready/roster handshake, demotion, rejoin — with
// shares that carry no masks, and still converges on the full cohort's mean.
func TestElasticPlainAggregation(t *testing.T) {
	values := [][]float64{{3}, {6}, {9}}
	m := len(values)
	mappers := make([]IterativeMapper, m)
	for i := range values {
		sm := &slowMapper{value: values[i]}
		if i == 1 {
			sm.slowOn = map[int]time.Duration{1: 700 * time.Millisecond}
		}
		mappers[i] = sm
	}
	red := newElasticAveragingReducer(m, true)
	job := IterativeJob{
		Mappers:         mappers,
		Reducer:         red,
		InitialState:    []float64{0},
		ContributionDim: 1,
		MaxIterations:   60,
	}
	res, snap := runElastic(t, job, DriverOptions{
		Aggregation:      AggregationPlain,
		StragglerTimeout: 150 * time.Millisecond,
	})
	if !res.Converged {
		t.Fatalf("did not converge in %d iterations", res.Iterations)
	}
	if math.Abs(res.FinalState[0]-6) > 1e-3 {
		t.Errorf("state = %g, want 6 (full-cohort mean)", res.FinalState[0])
	}
	if res.Demotions < 1 || res.Rejoins < 1 {
		t.Errorf("Demotions = %d, Rejoins = %d, want at least one of each", res.Demotions, res.Rejoins)
	}
	if got := snap.CounterTotal("ppml_mapper_demotions_total"); got != int64(res.Demotions) {
		t.Errorf("ppml_mapper_demotions_total = %d, res.Demotions = %d", got, res.Demotions)
	}
	if got := snap.CounterTotal("ppml_mapper_rejoins_total"); got != int64(res.Rejoins) {
		t.Errorf("ppml_mapper_rejoins_total = %d, res.Rejoins = %d", got, res.Rejoins)
	}
}

// heldMapper contributes value − state, except in round blockOn, where it
// does not return until release is closed.
type heldMapper struct {
	value   []float64
	blockOn int
	release chan struct{}
}

func (m *heldMapper) Contribution(iter int, state []float64) ([]float64, error) {
	if m.release != nil && iter == m.blockOn {
		<-m.release
	}
	out := make([]float64, len(m.value))
	for i := range out {
		out[i] = m.value[i] - state[i]
	}
	return out, nil
}

// lastRoundReducer is the averaging consensus that ends the job at round
// last, calling onLast from that round's Combine.
type lastRoundReducer struct {
	elasticAveragingReducer
	last   int
	onLast func()
}

func (r *lastRoundReducer) Combine(iter int, sum []float64, folded int) ([]float64, bool, error) {
	next, _, err := r.elasticAveragingReducer.Combine(iter, sum, folded)
	if iter == r.last {
		r.onLast()
	}
	return next, iter == r.last, err
}

// TestElapsedEndsWithTheLastRound: DriverResult.Elapsed stops with the job's
// last round, not with the teardown. A demoted straggler is still inside its
// Contribution when the job ends, and the teardown waits for it; here it is
// held until hold after the last round's Combine, and Elapsed must not
// count that hold.
func TestElapsedEndsWithTheLastRound(t *testing.T) {
	const hold = 400 * time.Millisecond
	release := make(chan struct{})
	values := [][]float64{{1, 9}, {3, 11}, {5, 13}}
	mappers := make([]IterativeMapper, len(values))
	for i, v := range values {
		hm := &heldMapper{value: v}
		if i == len(values)-1 {
			hm.blockOn, hm.release = 1, release
		}
		mappers[i] = hm
	}
	start := time.Now()
	var lastRound time.Duration
	red := &lastRoundReducer{
		elasticAveragingReducer: *newElasticAveragingReducer(len(values), false),
		last:                    3,
		onLast: func() {
			lastRound = time.Since(start)
			time.AfterFunc(hold, func() { close(release) })
		},
	}
	job := IterativeJob{
		Mappers:         mappers,
		Reducer:         red,
		InitialState:    make([]float64, 2),
		ContributionDim: 2,
		MaxIterations:   10,
	}
	res, _ := runElastic(t, job, DriverOptions{StragglerTimeout: 50 * time.Millisecond})
	if res.Demotions < 1 {
		t.Fatalf("Demotions = %d, want the held mapper demoted", res.Demotions)
	}
	if res.Elapsed >= lastRound+hold/2 {
		t.Errorf("Elapsed = %v, the last round ended at %v: the teardown's %v wait for the straggler was counted", res.Elapsed, lastRound, hold)
	}
}

// TestRoundWeightIsFoldedRosterWeight pins Combine's folded argument against
// the journal: it is the number of mappers whose shares the round folded,
// with or without the handshake.
func TestRoundWeightIsFoldedRosterWeight(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts DriverOptions
	}{
		{"elastic synchronous", DriverOptions{StragglerTimeout: 500 * time.Millisecond}},
		{"strict", DriverOptions{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			values := [][]float64{{1, 9}, {3, 11}, {5, 13}, {7, 15}}
			m := len(values)
			mappers := make([]IterativeMapper, m)
			for i := range values {
				mappers[i] = &slowMapper{value: values[i]}
			}
			red := newElasticAveragingReducer(m, false)
			red.tol = 0 // run the budget
			reg := telemetry.NewRegistry(telemetry.WithJournal(1 << 14))
			tc.opts.Telemetry = reg
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			res, err := RunDistributed(ctx, IterativeJob{
				Mappers: mappers, Reducer: red,
				InitialState: make([]float64, 2), ContributionDim: 2, MaxIterations: 30,
			}, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(red.participants) != res.Iterations {
				t.Fatalf("%d Combine calls over %d rounds", len(red.participants), res.Iterations)
			}
			// Replay the reducer's journal: who delivered over the round's
			// last roster — each roster.declared starts a new collection.
			folded := make([]map[string]bool, res.Iterations)
			for r := range folded {
				folded[r] = map[string]bool{}
			}
			for _, ev := range reg.Journal().Snapshot() {
				if ev.Node != reducerName || ev.Round < 0 || int(ev.Round) >= res.Iterations {
					continue
				}
				switch ev.Event {
				case "roster.declared":
					folded[ev.Round] = map[string]bool{}
				case "share.recv":
					folded[ev.Round][ev.Peer] = true
				}
			}
			for r, got := range red.participants {
				if got != len(folded[r]) {
					t.Errorf("round %d: Combine told %d folded, journal says %d shares folded", r, got, len(folded[r]))
				}
			}
		})
	}
}

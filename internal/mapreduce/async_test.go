package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/ppml-go/ppml/internal/telemetry"
)

// weightedAveragingReducer renormalizes the averaging consensus by the
// driver-announced staleness weight W = Σκ^s instead of the head count,
// recording every announcement so tests can audit the weight plumbing.
type weightedAveragingReducer struct {
	*elasticAveragingReducer
	w       float64
	weights []float64
	still   int // consecutive sub-tolerance steps
}

func newWeightedAveragingReducer(m int) *weightedAveragingReducer {
	return &weightedAveragingReducer{
		elasticAveragingReducer: newElasticAveragingReducer(m, false),
		w:                       float64(m),
	}
}

func (r *weightedAveragingReducer) SetRoundWeight(total float64) {
	r.w = total
	r.weights = append(r.weights, total)
}

func (r *weightedAveragingReducer) Combine(iter int, sum []float64) ([]float64, bool, error) {
	delta := 0.0
	next := make([]float64, len(sum))
	for i := range sum {
		step := sum[i] / r.w
		prev := 0.0
		if r.lastState != nil {
			prev = r.lastState[i]
		}
		next[i] = prev + step
		delta += step * step
	}
	r.lastState = next
	// One tiny step is not convergence here: a stale residual passes through
	// zero whenever the lagged state happens to sit on the fixed point (the
	// overshoot round), so demand several consecutive still rounds — only the
	// true fixed point keeps every lagged state pinned.
	if delta < r.tol*r.tol {
		r.still++
	} else {
		r.still = 0
	}
	return next, r.still >= 4, nil
}

// dampedMapper contributes θ(value − state). The undamped averaging residual
// is only marginally stable once every mapper is persistently one round stale
// (e_{t+1} = e_t − e_{t−1} oscillates with period six); θ = 0.5 keeps the
// delayed iteration contractive for every staleness pattern within the bound,
// which is the regime the ADMM consensus — whose contributions are full
// iterates, not raw residual steps — lives in.
type dampedMapper struct {
	slowMapper
	gain float64
}

func (m *dampedMapper) Contribution(iter int, state []float64) ([]float64, error) {
	out, err := m.slowMapper.Contribution(iter, state)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i] *= m.gain
	}
	return out, nil
}

// stalenessStats sums the ppml_round_staleness histogram across series.
func stalenessStats(snap *telemetry.Snapshot) (count uint64, sum float64) {
	for _, h := range snap.Histograms {
		if h.Name == metricStaleness {
			count += h.Count
			sum += h.Sum
		}
	}
	return count, sum
}

// TestStalenessSlowMapperConverges: one mapper computes slower than the round
// cadence, so under Staleness=2 it answers rounds with genuinely stale shares
// — yet it is never demoted (its ready declarations are instant), the job
// still converges to the full-cohort mean (κ=1 keeps the fixed point exact),
// the recorded stamps respect the bound, and the reducer's announced weights
// match the round participant counts.
func TestStalenessSlowMapperConverges(t *testing.T) {
	t.Parallel()
	values := [][]float64{{1, 9}, {3, 11}, {5, 13}, {7, 15}}
	m := len(values)
	mappers := make([]IterativeMapper, m)
	for i := range values {
		dm := &dampedMapper{slowMapper: slowMapper{value: values[i]}, gain: 0.5}
		if i == m-1 {
			dm.delay = 10 * time.Millisecond // slower than the others' round cadence
		}
		mappers[i] = dm
	}
	red := newWeightedAveragingReducer(m)
	job := IterativeJob{
		Mappers:         mappers,
		Reducer:         red,
		InitialState:    make([]float64, 2),
		ContributionDim: 2,
		MaxIterations:   300,
	}
	res, snap := runElastic(t, job, DriverOptions{
		StragglerTimeout: 500 * time.Millisecond,
		Staleness:        2,
		StalenessDecay:   1.0,
	})
	if !res.Converged {
		t.Fatalf("did not converge in %d iterations", res.Iterations)
	}
	want := []float64{4, 12} // full-cohort mean: stale-but-unit-weight shares keep it exact
	for i := range want {
		if math.Abs(res.FinalState[i]-want[i]) > 1e-3 {
			t.Errorf("state[%d] = %g, want %g", i, res.FinalState[i], want[i])
		}
	}
	if res.Demotions != 0 {
		t.Errorf("Demotions = %d; a slow-compute mapper under staleness must stay in the roster", res.Demotions)
	}
	count, sum := stalenessStats(snap)
	if count == 0 {
		t.Fatal("no ppml_round_staleness samples recorded")
	}
	if sum < 1 {
		t.Error("the slow mapper never answered with a stale share; the async path was not exercised")
	}
	if sum > float64(count)*2 {
		t.Errorf("mean stamp %g exceeds the staleness bound 2", sum/float64(count))
	}
	if len(red.weights) == 0 {
		t.Fatal("SetRoundWeight was never called")
	}
	for i, w := range red.weights {
		if w != math.Trunc(w) || w < 2 || w > float64(m) {
			t.Errorf("round %d: weight %g is not a roster count in [2, %d] despite κ=1", i, w, m)
		}
	}
}

// TestStalenessBoundIsHard: with Staleness=1 a mapper that falls two rounds
// behind must block (degrading to synchronous cadence) rather than ship an
// older share — no recorded stamp may exceed the bound.
func TestStalenessBoundIsHard(t *testing.T) {
	t.Parallel()
	values := [][]float64{{2}, {4}, {9}}
	mappers := make([]IterativeMapper, len(values))
	for i := range values {
		dm := &dampedMapper{slowMapper: slowMapper{value: values[i]}, gain: 0.5}
		if i == 0 {
			dm.delay = 15 * time.Millisecond
		}
		mappers[i] = dm
	}
	red := newWeightedAveragingReducer(len(values))
	job := IterativeJob{
		Mappers:         mappers,
		Reducer:         red,
		InitialState:    []float64{0},
		ContributionDim: 1,
		MaxIterations:   200,
	}
	res, snap := runElastic(t, job, DriverOptions{
		StragglerTimeout: 500 * time.Millisecond,
		Staleness:        1,
		StalenessDecay:   1.0,
	})
	if !res.Converged {
		t.Fatalf("did not converge in %d iterations", res.Iterations)
	}
	if math.Abs(res.FinalState[0]-5) > 1e-3 {
		t.Errorf("state = %g, want 5 (full-cohort mean)", res.FinalState[0])
	}
	count, sum := stalenessStats(snap)
	if count == 0 {
		t.Fatal("no staleness stamps recorded")
	}
	if sum > float64(count) {
		t.Errorf("mean stamp %g > 1: a share older than the bound was folded", sum/float64(count))
	}
}

// TestRoundWeightIsFoldedRosterWeight pins the one reducer hook against the
// journal: the total announced before a round's Combine is Σκ^s over the
// mappers whose shares the round folded — s being the stamp on each one's
// ready declaration, summed in mapper order as the engine does — and exactly
// the roster count when nothing can be stale, with or without the handshake.
func TestRoundWeightIsFoldedRosterWeight(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts DriverOptions
		slow time.Duration
	}{
		{"stale", DriverOptions{StragglerTimeout: 500 * time.Millisecond, Staleness: 2, StalenessDecay: 0.5}, 10 * time.Millisecond},
		{"elastic synchronous", DriverOptions{StragglerTimeout: 500 * time.Millisecond}, 0},
		{"strict", DriverOptions{}, 0},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			values := [][]float64{{1, 9}, {3, 11}, {5, 13}, {7, 15}}
			m := len(values)
			mappers := make([]IterativeMapper, m)
			for i := range values {
				dm := &dampedMapper{slowMapper: slowMapper{value: values[i]}, gain: 0.5}
				if i == m-1 {
					dm.delay = tc.slow
				}
				mappers[i] = dm
			}
			red := newWeightedAveragingReducer(m)
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
			if len(red.weights) != res.Iterations {
				t.Fatalf("%d SetRoundWeight calls over %d rounds", len(red.weights), res.Iterations)
			}
			// Replay the reducer's journal: the newest stamp per (round,
			// mapper), and who delivered over the round's last roster — each
			// roster.declared starts a new collection.
			stamps := make([][]int, res.Iterations)
			folded := make([][]bool, res.Iterations)
			for r := range stamps {
				stamps[r], folded[r] = make([]int, m), make([]bool, m)
			}
			id := map[string]int{}
			for i := 0; i < m; i++ {
				id[fmt.Sprintf("mapper-%d", i)] = i
			}
			for _, ev := range reg.Journal().Snapshot() {
				if ev.Node != reducerName || ev.Round < 0 || int(ev.Round) >= res.Iterations {
					continue
				}
				switch ev.Event {
				case "ready.recv":
					stamps[ev.Round][id[ev.Peer]] = int(ev.Value)
				case "roster.declared":
					folded[ev.Round] = make([]bool, m)
				case "share.recv":
					folded[ev.Round][id[ev.Peer]] = true
				}
			}
			stale := 0
			for r, got := range red.weights {
				want, n := 0.0, 0
				for i := 0; i < m; i++ {
					if folded[r][i] {
						want += decayWeight(tc.opts.StalenessDecay, stamps[r][i])
						stale += stamps[r][i]
						n++
					}
				}
				if got != want {
					t.Errorf("round %d: SetRoundWeight(%g), journal says Σκ^s = %g over %d shares", r, got, want, n)
				}
				if tc.opts.Staleness == 0 && got != float64(n) {
					t.Errorf("round %d: synchronous weight %g, want the roster count %d", r, got, n)
				}
			}
			if tc.opts.Staleness > 0 && stale == 0 {
				t.Error("the slow mapper never answered with a stale share; the weighted path was not exercised")
			}
		})
	}
}

// TestStalenessValidation: the misconfigurations the driver must reject
// before spawning any node.
func TestStalenessValidation(t *testing.T) {
	t.Parallel()
	base := func() IterativeJob {
		return IterativeJob{
			Mappers:         []IterativeMapper{&slowMapper{value: []float64{1}}, &slowMapper{value: []float64{2}}},
			Reducer:         newWeightedAveragingReducer(2),
			InitialState:    []float64{0},
			ContributionDim: 1,
			MaxIterations:   2,
		}
	}
	cases := []struct {
		name string
		opts DriverOptions
	}{
		{"no straggler window", DriverOptions{Staleness: 1}},
		{"plain aggregation", DriverOptions{Staleness: 1, StragglerTimeout: 50 * time.Millisecond, Aggregation: AggregationPlain}},
		{"stamp overflow", DriverOptions{Staleness: 256, StragglerTimeout: 50 * time.Millisecond}},
		{"decay out of range", DriverOptions{Staleness: 1, StragglerTimeout: 50 * time.Millisecond, StalenessDecay: 1.5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunDistributed(context.Background(), base(), tc.opts)
			if !errors.Is(err, ErrBadJob) {
				t.Fatalf("err = %v, want ErrBadJob", err)
			}
		})
	}
	t.Run("reducer cannot renormalize", func(t *testing.T) {
		job := base()
		job.Reducer = &averagingReducer{m: 2, tol: 1e-9} // no SetRoundWeight
		_, err := RunDistributed(context.Background(), job, DriverOptions{
			Staleness:        1,
			StragglerTimeout: 50 * time.Millisecond,
		})
		if !errors.Is(err, ErrBadJob) {
			t.Fatalf("err = %v, want ErrBadJob", err)
		}
	})
}

// gatedMapper hands each Contribution's round to started, then blocks until
// release — so a test controls exactly when the background solve finishes.
// seen is written only from the worker goroutine and read after close() joins
// it.
type gatedMapper struct {
	started chan int
	release chan struct{}
	seen    []int
}

func (m *gatedMapper) Contribution(iter int, state []float64) ([]float64, error) {
	m.started <- iter
	<-m.release
	m.seen = append(m.seen, iter)
	return []float64{float64(iter)}, nil
}

// TestAsyncComputerNewestWins pins the depth-one job queue: a job superseded
// before the worker picks it up is never solved, and share() scales the
// newest contribution by κ^s with the matching wire stamp.
func TestAsyncComputerNewestWins(t *testing.T) {
	t.Parallel()
	mp := &gatedMapper{started: make(chan int), release: make(chan struct{})}
	c := newAsyncComputer(solver{mp, nil, "mapper-0", telemetry.TraceID{}})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	c.submit(0, []float64{0})
	if got := <-mp.started; got != 0 {
		t.Fatalf("worker started round %d, want 0", got)
	}
	// While round 0 is in flight, rounds 1 and 2 arrive: 1 is superseded in
	// the queue and must never be solved.
	c.submit(1, []float64{0})
	c.submit(2, []float64{0})
	mp.release <- struct{}{} // finish round 0
	if got := <-mp.started; got != 2 {
		t.Fatalf("worker started round %d after supersession, want 2", got)
	}
	mp.release <- struct{}{} // finish round 2
	if err := c.wait(ctx, 2); err != nil {
		t.Fatal(err)
	}

	// Newest contribution is round 2's ([]float64{2}); at round 4 that is
	// staleness 2, so decay 0.5 scales it by 0.25.
	contrib, stamp, err := c.share(4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(contrib) != 1 || math.Abs(contrib[0]-0.5) > 1e-12 {
		t.Errorf("share = %v, want [0.5] (2 × 0.5²)", contrib)
	}
	if len(stamp) != 1 || stamp[0] != 2 {
		t.Errorf("stamp = %v, want [2]", stamp)
	}
	// A current share is unscaled with a zero stamp.
	contrib, stamp, err = c.share(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if contrib[0] != 2 || stamp[0] != 0 {
		t.Errorf("current share = %v stamp %v, want [2] [0]", contrib, stamp)
	}

	c.close() // joins the worker, publishing seen
	want := []int{0, 2}
	if len(mp.seen) != len(want) || mp.seen[0] != want[0] || mp.seen[1] != want[1] {
		t.Errorf("worker solved rounds %v, want %v (round 1 superseded)", mp.seen, want)
	}
}

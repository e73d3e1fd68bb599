package mapreduce

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/ppml-go/ppml/internal/securesum"
	"github.com/ppml-go/ppml/internal/transport"
)

// TestEngineFilter pins the invariant the round engine's share collection
// rests on: within a round, the roster stamp alone decides which derivation a
// share belongs to. A share stamped with the roster being collected is
// folded; one derived over a superseded (larger) roster of the same round is
// dropped, as is anything of an earlier round; later rounds and other
// sessions wait in the reorder buffer; aborts always get through; and a ready
// declaration is wanted only by the ready phase.
func TestEngineFilter(t *testing.T) {
	const session, r = 7, 5
	e := &engine{sessionEnv: sessionEnv{session: session}}
	superseded := transport.FullRoster(4)
	current := transport.FullRoster(4)
	current.Remove(3)
	share := func(round int32, stamp transport.Roster) transport.Message {
		return transport.Message{Session: session, Round: round, Kind: securesum.KindShare, Roster: stamp}
	}
	e.round, e.phase = r, e.accept
	phase := func(stamp transport.Roster, kind string) transport.Filter {
		return func(m transport.Message) transport.Verdict {
			e.stamp, e.want = stamp, kind
			return e.phase(m)
		}
	}
	shares := phase(current, securesum.KindShare)
	strict := phase(nil, securesum.KindShare)
	ready := phase(nil, KindReady)
	for _, tc := range []struct {
		name   string
		filter transport.Filter
		msg    transport.Message
		want   transport.Verdict
	}{
		{"share stamped with the current roster", shares, share(r, current), transport.Accept},
		{"share of a superseded, larger roster", shares, share(r, superseded), transport.Drop},
		{"unstamped share in a rostered collection", shares, share(r, nil), transport.Drop},
		{"share of the next round", shares, share(r+1, current), transport.Defer},
		{"share of the previous round", shares, share(r-1, current), transport.Drop},
		{"abort of the current round", shares, transport.Message{Session: session, Round: r, Kind: KindAbort}, transport.Accept},
		{"abort of an earlier round", shares, transport.Message{Session: session, Round: r - 1, Kind: KindAbort}, transport.Accept},
		{"abort of a later round", ready, transport.Message{Session: session, Round: r + 1, Kind: KindAbort}, transport.Accept},
		{"share of another session", shares, transport.Message{Session: session + 1, Round: r, Kind: securesum.KindShare, Roster: current}, transport.Defer},
		{"ready in the ready phase", ready, transport.Message{Session: session, Round: r, Kind: KindReady}, transport.Accept},
		{"ready in the share phase", shares, transport.Message{Session: session, Round: r, Kind: KindReady}, transport.Drop},
		{"strict share, no stamp", strict, share(r, nil), transport.Accept},
		{"stamped share in a strict collection", strict, share(r, current), transport.Drop},
	} {
		if got := tc.filter(tc.msg); got != tc.want {
			t.Errorf("%s: verdict %v, want %v", tc.name, got, tc.want)
		}
	}
}

// dampedMapper contributes θ(value − state): the averaging consensus then
// closes a fraction θ of its gap each round and runs tens of rounds to a
// tolerance, where the undamped step lands on the mean in one.
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

// TestEngineConformance pins every configuration of the round engine to the
// same model: {seeded, plain} aggregation × {in-process, TCP} transport ×
// {strict, elastic with no fault} policy on the damped averaging job, each
// compared with the local reference engine. Every row must stop on the same
// iteration as the reference and agree with it to 1e-6, and every row must
// be bit-identical to the first: both aggregations fold the same ring sum —
// a plain share is a masked share without masks, and 2⁶⁴ wrapping adds are
// exact in any arrival order — so neither the masks, the policy nor the
// transport may move a bit. The gain is 0.3, not a power of two: with 0.5
// every share of this job is a short dyadic rational, exact in floats and in
// the ring alike, and a float fold in arrival order would pass unnoticed.
func TestEngineConformance(t *testing.T) {
	values := [][]float64{{1.5, -3, 8}, {2.5, 7, -2}, {0, 0, 1}, {4, -4, 4}}
	m := len(values)
	const budget = 60
	job := func() IterativeJob {
		mappers := make([]IterativeMapper, m)
		for i := range values {
			mappers[i] = &dampedMapper{slowMapper: slowMapper{value: values[i]}, gain: 0.3}
		}
		red := newElasticAveragingReducer(m, false)
		red.tol = 1e-6
		return IterativeJob{
			Mappers:         mappers,
			Reducer:         red,
			InitialState:    make([]float64, len(values[0])),
			ContributionDim: len(values[0]),
			MaxIterations:   budget,
		}
	}
	ref, err := runLocal(job())
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Converged || ref.Iterations >= budget {
		t.Fatalf("reference run: converged=%v after %d iterations; the matrix needs a run that stops on tolerance", ref.Converged, ref.Iterations)
	}
	aggs := []struct {
		name string
		opts DriverOptions
	}{
		{"seeded", DriverOptions{}},
		{"plain", DriverOptions{Aggregation: AggregationPlain}},
	}
	nets := []struct {
		name string
		open func() transport.Network
	}{
		{"inproc", func() transport.Network { return transport.NewInProc() }},
		{"tcp", func() transport.Network { return transport.NewTCP() }},
	}
	policies := []struct {
		name      string
		straggler time.Duration
	}{
		{"strict", 0},
		{"elastic", 5 * time.Second}, // window far above a round: no deadline ever fires
	}
	var first []float64 // the matrix's first row
	for _, agg := range aggs {
		for _, nw := range nets {
			for _, pol := range policies {
				t.Run(agg.name+"/"+nw.name+"/"+pol.name, func(t *testing.T) {
					net := nw.open()
					defer net.Close()
					opts := agg.opts
					opts.Network = net
					opts.StragglerTimeout = pol.straggler
					ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
					defer cancel()
					res, err := RunDistributed(ctx, job(), opts)
					if err != nil {
						t.Fatal(err)
					}
					if res.Iterations != ref.Iterations || res.Converged != ref.Converged {
						t.Errorf("ran %d iterations (converged=%v), local reference %d (converged=%v)",
							res.Iterations, res.Converged, ref.Iterations, ref.Converged)
					}
					for i := range ref.FinalState {
						if math.Abs(res.FinalState[i]-ref.FinalState[i]) > 1e-6 {
							t.Errorf("state[%d] = %g, local reference %g (tolerance 1e-6)", i, res.FinalState[i], ref.FinalState[i])
						}
					}
					if res.Demotions != 0 || res.Rejoins != 0 {
						t.Errorf("Demotions = %d, Rejoins = %d on a no-fault run", res.Demotions, res.Rejoins)
					}
					if first == nil {
						first = res.FinalState
					}
					for i := range first {
						if math.Float64bits(res.FinalState[i]) != math.Float64bits(first[i]) {
							t.Errorf("state[%d] = %x, the first row has %x: ring sums must be bit-identical across aggregations, policies and transports",
								i, math.Float64bits(res.FinalState[i]), math.Float64bits(first[i]))
						}
					}
				})
			}
		}
	}
}

// TestRecvWindow pins the Reducer's reusable receive window against what a
// context.WithTimeout per phase gave: an expired window reads
// DeadlineExceeded, which expired takes for the window; a window whose job
// ended reads the job's error, which expired does not; a re-armed window is
// open again; a fire of a superseded arm closes nothing; and after disarm
// neither the timer nor the job's end reaches the window.
func TestRecvWindow(t *testing.T) {
	waitClosed := func(t *testing.T, ctx context.Context) {
		t.Helper()
		select {
		case <-ctx.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("the window never closed")
		}
	}
	isOpen := func(ctx context.Context) bool {
		select {
		case <-ctx.Done():
			return false
		default:
			return ctx.Err() == nil
		}
	}

	t.Run("expiry and re-arm", func(t *testing.T) {
		job := context.Background()
		w := newRecvWindow(job)
		defer w.disarm()
		wctx := w.arm(time.Millisecond)
		waitClosed(t, wctx)
		if err := wctx.Err(); !errors.Is(err, context.DeadlineExceeded) || !expired(job, err) {
			t.Fatalf("an expired window: err %v, expired %v", err, expired(job, err))
		}
		if wctx = w.arm(time.Hour); !isOpen(wctx) {
			t.Fatalf("a window re-armed after its expiry is closed: %v", wctx.Err())
		}
		// A fire of the expired arm that Reset came too late to stop.
		w.expire()
		if !isOpen(wctx) {
			t.Fatalf("a superseded arm's fire closed the re-armed window: %v", wctx.Err())
		}
	})

	t.Run("job ends", func(t *testing.T) {
		job, cancel := context.WithCancel(context.Background())
		w := newRecvWindow(job)
		defer w.disarm()
		wctx := w.arm(time.Hour)
		cancel()
		waitClosed(t, wctx)
		if err := wctx.Err(); !errors.Is(err, context.Canceled) || expired(job, err) {
			t.Fatalf("a window whose job ended: err %v, expired %v", err, expired(job, err))
		}
		if err := w.arm(time.Hour).Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("a window armed after its job ended: err %v, want the job's", err)
		}
	})

	t.Run("job ends after an expiry", func(t *testing.T) {
		job, cancel := context.WithCancel(context.Background())
		w := newRecvWindow(job)
		defer w.disarm()
		waitClosed(t, w.arm(time.Millisecond))
		cancel()
		if err := w.arm(time.Hour).Err(); !errors.Is(err, context.Canceled) || expired(job, err) {
			t.Fatalf("re-armed after an expiry and the job's end: err %v, want the job's", err)
		}
	})

	t.Run("disarm", func(t *testing.T) {
		job, cancel := context.WithCancel(context.Background())
		defer cancel()
		w := newRecvWindow(job)
		const d = 200 * time.Millisecond
		wctx := w.arm(d)
		w.disarm()
		cancel()
		time.Sleep(d + 50*time.Millisecond)
		w.expire() // past the deadline: only the disarm holds it
		if !isOpen(wctx) {
			t.Fatalf("a disarmed window closed: %v", wctx.Err())
		}
	})

	t.Run("concurrent re-arms", func(t *testing.T) {
		job := context.Background()
		w := newRecvWindow(job)
		defer w.disarm()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case <-w.Done():
					if err := w.Err(); err != nil && !errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("an expired window reads %v", err)
						return
					}
				}
			}
		}()
		for i := 0; i < 200; i++ {
			w.arm(time.Duration(i%3) * 100 * time.Microsecond)
			if i%20 == 0 {
				waitClosed(t, w)
			}
		}
		close(stop)
		wg.Wait()
	})
}

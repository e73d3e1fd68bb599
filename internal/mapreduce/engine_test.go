package mapreduce

import (
	"context"
	"math"
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
	shares := e.filter(r, current, securesum.KindShare)
	strict := e.filter(r, nil, securesum.KindShare)
	ready := e.filter(r, nil, KindReady)
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

// TestEngineConformance pins every configuration of the round engine to the
// same model: {seeded, per-round, plain} aggregation × {in-process,
// TCP} transport × {strict, elastic with no fault, bounded staleness S=1 with
// no fault (seeded only)} policy on the damped averaging job (per-round masks
// run strict rounds only), each compared
// with the local reference engine. The synchronous rows must stop on the same
// iteration as the reference and agree with it to 1e-6; within one
// aggregation they must be bit-identical across policies and transports
// wherever the sum is a ring sum (both mask modes: 2⁶⁴ wrapping adds are
// exact in any arrival order — plain float adds are not). An S=1 row
// folds a racy mix of fresh and one-round-stale shares, so it runs a fixed
// budget and must land within 1e-3.
func TestEngineConformance(t *testing.T) {
	values := [][]float64{{1.5, -3, 8}, {2.5, 7, -2}, {0, 0, 1}, {4, -4, 4}}
	m := len(values)
	const budget = 60
	// tol 0 never converges: the job runs its whole budget.
	job := func(tol float64) IterativeJob {
		mappers := make([]IterativeMapper, m)
		for i := range values {
			mappers[i] = &dampedMapper{slowMapper: slowMapper{value: values[i]}, gain: 0.5}
		}
		red := newWeightedAveragingReducer(m)
		red.tol = tol
		return IterativeJob{
			Mappers:         mappers,
			Reducer:         red,
			InitialState:    make([]float64, len(values[0])),
			ContributionDim: len(values[0]),
			MaxIterations:   budget,
		}
	}
	const syncTol = 1e-6
	local := map[float64]*IterativeResult{}
	for _, tol := range []float64{syncTol, 0} {
		res, err := runLocal(job(tol))
		if err != nil {
			t.Fatal(err)
		}
		local[tol] = res
	}
	if ref := local[syncTol]; !ref.Converged || ref.Iterations >= budget {
		t.Fatalf("reference run: converged=%v after %d iterations; the matrix needs a run that stops on tolerance", ref.Converged, ref.Iterations)
	}
	aggs := []struct {
		name string
		opts DriverOptions
		ring bool
	}{
		{"seeded", DriverOptions{MaskMode: MaskSeeded}, true},
		{"perround", DriverOptions{MaskMode: MaskPerRound}, true},
		{"plain", DriverOptions{Aggregation: AggregationPlain}, false},
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
		staleness int
	}{
		{"strict", 0, 0},
		{"elastic", 5 * time.Second, 0}, // window far above a round: no deadline ever fires
		{"stale1", 5 * time.Second, 1},
	}
	for _, agg := range aggs {
		var first []float64 // the aggregation's first synchronous row
		for _, nw := range nets {
			for _, pol := range policies {
				if pol.staleness > 0 && agg.opts.Aggregation != 0 {
					continue // bounded staleness needs the masked handshake
				}
				if pol.straggler > 0 && agg.opts.MaskMode == MaskPerRound {
					continue // per-round masks run strict rounds only
				}
				t.Run(agg.name+"/"+nw.name+"/"+pol.name, func(t *testing.T) {
					tol, within := syncTol, 1e-6
					if pol.staleness > 0 {
						tol, within = 0, 1e-3
					}
					net := nw.open()
					defer net.Close()
					opts := agg.opts
					opts.Network = net
					opts.StragglerTimeout = pol.straggler
					opts.Staleness = pol.staleness
					opts.StalenessDecay = 1
					ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
					defer cancel()
					res, err := RunDistributed(ctx, job(tol), opts)
					if err != nil {
						t.Fatal(err)
					}
					ref := local[tol]
					if res.Iterations != ref.Iterations || res.Converged != ref.Converged {
						t.Errorf("ran %d iterations (converged=%v), local reference %d (converged=%v)",
							res.Iterations, res.Converged, ref.Iterations, ref.Converged)
					}
					for i := range ref.FinalState {
						if math.Abs(res.FinalState[i]-ref.FinalState[i]) > within {
							t.Errorf("state[%d] = %g, local reference %g (tolerance %g)", i, res.FinalState[i], ref.FinalState[i], within)
						}
					}
					if res.Demotions != 0 || res.Rejoins != 0 {
						t.Errorf("Demotions = %d, Rejoins = %d on a no-fault run", res.Demotions, res.Rejoins)
					}
					if !agg.ring || pol.staleness > 0 {
						return
					}
					if first == nil {
						first = res.FinalState
					}
					for i := range first {
						if math.Float64bits(res.FinalState[i]) != math.Float64bits(first[i]) {
							t.Errorf("state[%d] = %x, the aggregation's first row has %x: ring sums must be bit-identical across policies and transports",
								i, math.Float64bits(res.FinalState[i]), math.Float64bits(first[i]))
						}
					}
				})
			}
		}
	}
}

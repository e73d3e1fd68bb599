package mapreduce

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/ppml-go/ppml/internal/securesum"
	"github.com/ppml-go/ppml/internal/transport"
)

// wiretap wraps a network and counts every delivered send by kind, and the
// sends whose envelope carries a roster bitset, by kind too.
type wiretap struct {
	transport.Network
	mu      sync.Mutex
	kinds   map[string]int
	stamped map[string]int
}

func (w *wiretap) Endpoint(name string) (transport.Endpoint, error) {
	ep, err := w.Network.Endpoint(name)
	if err != nil {
		return nil, err
	}
	return &wiretapEndpoint{Endpoint: ep, tap: w}, nil
}

type wiretapEndpoint struct {
	transport.Endpoint
	tap *wiretap
}

func (e *wiretapEndpoint) Send(ctx context.Context, to, kind string, hdr transport.Header, payload []byte) error {
	err := e.Endpoint.Send(ctx, to, kind, hdr, payload)
	if err == nil {
		e.tap.mu.Lock()
		e.tap.kinds[kind]++
		if hdr.Roster != nil {
			e.tap.stamped[kind]++
		}
		e.tap.mu.Unlock()
	}
	return err
}

// TestElasticNoFaultOverhead pins what a no-fault job puts on the wire under
// each policy and aggregation, frame for frame. Without a straggler deadline
// the engine skips the handshake outright: a round is M broadcasts and M
// shares, no KindReady or KindRoster frame exists, and no envelope carries a
// roster bitset. With one, a round adds exactly M ready declarations and M
// roster declarations, and every share is stamped with the roster it was
// derived over. Plain aggregation has the masked shape frame for frame, less
// the session's seed exchange: a plain share is a masked share without masks.
// (What the extra 2M frames cost in wall-clock is the benchmark's
// hl_rounds_tcp / hl_rounds_elastic_tcp pair.)
func TestElasticNoFaultOverhead(t *testing.T) {
	values := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	m := len(values)
	const rounds = 12
	census := func(agg Aggregation, straggler time.Duration) *wiretap {
		t.Helper()
		job, red := newAveragingJob(values, rounds)
		red.tol = 0 // run the full budget so every count is deterministic
		tap := &wiretap{Network: transport.NewInProc(), kinds: map[string]int{}, stamped: map[string]int{}}
		defer tap.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		res, err := RunDistributed(ctx, job, DriverOptions{Network: tap, Aggregation: agg, StragglerTimeout: straggler})
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != rounds {
			t.Fatalf("ran %d rounds, want %d", res.Iterations, rounds)
		}
		return tap
	}
	check := func(name string, got, want map[string]int) {
		t.Helper()
		for kind, n := range want {
			if got[kind] != n {
				t.Errorf("%s: %d %q frames, want %d", name, got[kind], kind, n)
			}
		}
		for kind, n := range got {
			if _, ok := want[kind]; !ok {
				t.Errorf("%s: %d unexpected %q frames", name, n, kind)
			}
		}
	}
	for _, agg := range []struct {
		name  string
		agg   Aggregation
		share string
		setup map[string]int // the session's frames outside its rounds
	}{
		{"masked", AggregationMasked, securesum.KindShare, map[string]int{securesum.KindSeed: m * (m - 1), KindStop: m}},
		{"plain", AggregationPlain, KindPlainShare, map[string]int{KindStop: m}},
	} {
		want := map[string]int{KindBroadcast: m * rounds, agg.share: m * rounds}
		for k, n := range agg.setup {
			want[k] = n
		}
		strict := census(agg.agg, 0)
		check(agg.name+"/strict", strict.kinds, want) // 2M frames a round
		check(agg.name+"/strict stamped", strict.stamped, map[string]int{})

		elastic := census(agg.agg, 5*time.Second) // window far above round time: no timeouts
		want[KindReady], want[KindRoster] = m*rounds, m*rounds
		check(agg.name+"/elastic", elastic.kinds, want) // 4M frames a round
		check(agg.name+"/elastic stamped", elastic.stamped, map[string]int{KindRoster: m * rounds, agg.share: m * rounds})
	}
}

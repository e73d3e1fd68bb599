package mapreduce

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/ppml-go/ppml/internal/securesum"
	"github.com/ppml-go/ppml/internal/transport"
)

// wiretap wraps a network and counts every delivered send by kind, plus the
// sends whose envelope carries a roster bitset.
type wiretap struct {
	transport.Network
	mu      sync.Mutex
	kinds   map[string]int
	stamped int
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
			e.tap.stamped++
		}
		e.tap.mu.Unlock()
	}
	return err
}

// TestElasticNoFaultOverhead pins what a no-fault job puts on the wire under
// each policy, frame for frame. Without a straggler deadline the engine skips
// the handshake outright: a round is M broadcasts and M shares, no KindReady
// or KindRoster frame exists, and no envelope carries a roster bitset. With
// one, a masked round adds exactly M ready declarations
// and M roster declarations. (What the extra 2M frames cost in wall-clock is
// the benchmark's hl_rounds_tcp / hl_rounds_elastic_tcp pair.)
func TestElasticNoFaultOverhead(t *testing.T) {
	values := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	m := len(values)
	const rounds = 12
	census := func(straggler time.Duration) *wiretap {
		t.Helper()
		job, red := newAveragingJob(values, rounds)
		red.tol = 0 // run the full budget so every count is deterministic
		tap := &wiretap{Network: transport.NewInProc(), kinds: map[string]int{}}
		defer tap.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		res, err := RunDistributed(ctx, job, DriverOptions{Network: tap, StragglerTimeout: straggler})
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != rounds {
			t.Fatalf("ran %d rounds, want %d", res.Iterations, rounds)
		}
		return tap
	}
	check := func(name string, tap *wiretap, want map[string]int) {
		t.Helper()
		for kind, n := range want {
			if got := tap.kinds[kind]; got != n {
				t.Errorf("%s: %d %q frames, want %d", name, got, kind, n)
			}
		}
		for kind, n := range tap.kinds {
			if _, ok := want[kind]; !ok {
				t.Errorf("%s: %d unexpected %q frames", name, n, kind)
			}
		}
	}
	session := map[string]int{securesum.KindSeed: m * (m - 1), KindStop: m}

	strict := census(0)
	want := map[string]int{KindBroadcast: m * rounds, securesum.KindShare: m * rounds}
	for k, n := range session {
		want[k] = n
	}
	check("strict", strict, want) // 2M frames a round
	if strict.stamped != 0 {
		t.Errorf("strict: %d frames carry a roster bitset, want none", strict.stamped)
	}

	elastic := census(5 * time.Second) // window far above round time: no timeouts
	want[KindReady], want[KindRoster] = m*rounds, m*rounds
	check("elastic", elastic, want) // 4M frames a round
}

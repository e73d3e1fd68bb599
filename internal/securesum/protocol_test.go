package securesum

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/ppml-go/ppml/internal/fixedpoint"
	"github.com/ppml-go/ppml/internal/transport"
)

// runDistributedRound wires m parties and a reducer over the given network
// and executes one protocol round, returning the reducer's decoded sum.
func runDistributedRound(t *testing.T, net transport.Network, values [][]float64) []float64 {
	t.Helper()
	hdr := transport.Header{Session: 1}
	codec := fixedpoint.Default()
	m := len(values)
	dim := len(values[0])
	names := make([]string, m)
	for i := range names {
		names[i] = fmt.Sprintf("mapper-%d", i)
	}
	const reducer = "reducer"

	red, err := net.Endpoint(reducer)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]transport.Endpoint, m)
	for i := range eps {
		ep, err := net.Endpoint(names[i])
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	errs := make(chan error, m)
	for i := 0; i < m; i++ {
		go func(i int) {
			errs <- RunParty(ctx, eps[i], names, i, reducer, values[i], codec, nil, hdr)
		}(i)
	}
	sum, err := RunCollector(ctx, red, m, dim, codec, hdr)
	if err != nil {
		t.Fatalf("collector: %v", err)
	}
	for i := 0; i < m; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("party: %v", err)
		}
	}
	return sum
}

func TestDistributedRoundInProc(t *testing.T) {
	net := transport.NewInProc()
	defer net.Close()
	rng := rand.New(rand.NewSource(3))
	values := randomValues(rng, 4, 6, 50)
	got := runDistributedRound(t, net, values)
	want := plainSum(values)
	for j := range want {
		if math.Abs(got[j]-want[j]) > 1e-6 {
			t.Fatalf("element %d: %g, want %g", j, got[j], want[j])
		}
	}
}

func TestDistributedRoundTCP(t *testing.T) {
	net := transport.NewTCP()
	defer net.Close()
	rng := rand.New(rand.NewSource(4))
	values := randomValues(rng, 3, 5, 50)
	got := runDistributedRound(t, net, values)
	want := plainSum(values)
	for j := range want {
		if math.Abs(got[j]-want[j]) > 1e-6 {
			t.Fatalf("element %d: %g, want %g", j, got[j], want[j])
		}
	}
}

func TestDistributedTrafficShape(t *testing.T) {
	// One RunParty round moves exactly the session's m(m−1) seed messages of
	// SeedSize bytes plus m share messages of 8·dim bytes.
	net := transport.NewInProc()
	defer net.Close()
	const m, dim = 4, 6
	rng := rand.New(rand.NewSource(5))
	values := randomValues(rng, m, dim, 10)
	runDistributedRound(t, net, values)
	st := net.Stats()
	if want := int64(m*(m-1) + m); st.Messages != want {
		t.Errorf("messages = %d, want %d", st.Messages, want)
	}
	if want := int64(m*(m-1)*SeedSize + m*8*dim); st.Bytes != want {
		t.Errorf("bytes = %d, want %d", st.Bytes, want)
	}
}

func TestRunCollectorTimeout(t *testing.T) {
	net := transport.NewInProc()
	defer net.Close()
	red, err := net.Endpoint("reducer")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := RunCollector(ctx, red, 2, 3, fixedpoint.Default(), transport.Header{Session: 1}); err == nil {
		t.Error("collector with no shares should time out")
	}
}

func TestRoundDemuxBuffersEarlyAndDropsStale(t *testing.T) {
	// A fast party's next-round share must wait in the Reducer's reorder
	// buffer without corrupting the current round, and a leftover share from
	// a finished round must be dropped (and counted), not delivered.
	net := transport.NewInProc()
	defer net.Close()
	codec := fixedpoint.Default()
	const m, dim = 3, 4
	rng := rand.New(rand.NewSource(6))
	values := randomValues(rng, m, dim, 25)

	names := make([]string, m)
	eps := make([]transport.Endpoint, m)
	for i := range names {
		names[i] = fmt.Sprintf("mapper-%d", i)
		ep, err := net.Endpoint(names[i])
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	red, err := net.Endpoint("reducer")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Pollute the Reducer's inbox before the round starts: one future-round
	// share (buffered for round 1) and one stale round share (dropped).
	future := transport.Header{Session: 7, Round: 1}
	stale := transport.Header{Session: 7, Round: -5}
	junk := AppendShares(nil, make([]uint64, dim))
	if err := eps[0].Send(ctx, "reducer", KindShare, future, junk); err != nil {
		t.Fatal(err)
	}
	if err := eps[0].Send(ctx, "reducer", KindShare, stale, junk); err != nil {
		t.Fatal(err)
	}

	hdr := transport.Header{Session: 7, Round: 0}
	errs := make(chan error, m)
	for i := 0; i < m; i++ {
		go func(i int) {
			errs <- RunParty(ctx, eps[i], names, i, "reducer", values[i], codec, nil, hdr)
		}(i)
	}
	sum, err := RunCollector(ctx, red, m, dim, codec, hdr)
	if err != nil {
		t.Fatalf("collector: %v", err)
	}
	for i := 0; i < m; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("party: %v", err)
		}
	}
	want := plainSum(values)
	for j := range want {
		if math.Abs(sum[j]-want[j]) > 1e-6 {
			t.Fatalf("element %d: %g, want %g", j, sum[j], want[j])
		}
	}
	if got := net.Stats().StaleDropped; got != 1 {
		t.Errorf("StaleDropped = %d, want 1 (the stale share)", got)
	}
	// The future-round share is still waiting: a round-1 receive finds it.
	buffered, err := red.RecvMatch(ctx, shareFilter(future))
	if err != nil {
		t.Fatal(err)
	}
	if buffered.Kind != KindShare || buffered.Round != 1 || buffered.Session != 7 {
		t.Fatalf("buffered share envelope = kind %q %+v", buffered.Kind, buffered.Header())
	}
}

func TestRunCollectorControlMessageMidRoundIsProtocolError(t *testing.T) {
	// A same-session non-share message mid-round is a protocol violation at
	// the Reducer. Every frame the party sent carries the nil roster of a
	// strict round: its seed at SetupRound, its share at the round.
	net := transport.NewInProc()
	defer net.Close()
	names := []string{"mapper-0", "mapper-1"}
	ep0, err := net.Endpoint(names[0])
	if err != nil {
		t.Fatal(err)
	}
	ep1, err := net.Endpoint(names[1])
	if err != nil {
		t.Fatal(err)
	}
	red, err := net.Endpoint("reducer")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	hdr := transport.Header{Session: 3, Round: 2}
	setup := hdr
	setup.Round = SetupRound
	if err := ep1.Send(ctx, names[0], KindSeed, setup, make([]byte, SeedSize)); err != nil {
		t.Fatal(err)
	}
	if err := RunParty(ctx, ep0, names, 0, "reducer", []float64{1, 2}, fixedpoint.Default(), nil, hdr); err != nil {
		t.Fatal(err)
	}
	seed, err := ep1.RecvMatch(ctx, func(transport.Message) transport.Verdict { return transport.Accept })
	if err != nil {
		t.Fatal(err)
	}
	if seed.Kind != KindSeed || seed.Roster != nil || seed.Round != SetupRound || len(seed.Payload) != SeedSize {
		t.Errorf("seed frame = kind %q roster %v round %d, %d bytes; want a session setup's", seed.Kind, seed.Roster, seed.Round, len(seed.Payload))
	}
	share, err := red.RecvMatch(ctx, shareFilter(hdr))
	if err != nil {
		t.Fatal(err)
	}
	if share.Kind != KindShare || share.Roster != nil || share.Round != 2 || len(share.Payload) != 16 {
		t.Errorf("share frame = kind %q roster %v round %d, %d bytes; want a strict round's", share.Kind, share.Roster, share.Round, len(share.Payload))
	}
	if err := ep1.Send(ctx, "reducer", "job.stop", hdr, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := RunCollector(ctx, red, 2, 2, fixedpoint.Default(), hdr); !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

package transport

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

func TestRosterBitset(t *testing.T) {
	r := NewRoster(8)
	if r.Count() != 0 {
		t.Fatalf("empty roster Count = %d", r.Count())
	}
	for _, i := range []int{0, 3, 7} {
		r.Add(i)
	}
	if r.Count() != 3 {
		t.Fatalf("Count = %d, want 3", r.Count())
	}
	for i := 0; i < 8; i++ {
		want := i == 0 || i == 3 || i == 7
		if r.Has(i) != want {
			t.Fatalf("Has(%d) = %v, want %v", i, r.Has(i), want)
		}
	}
	r.Remove(3)
	if r.Has(3) || r.Count() != 2 {
		t.Fatalf("after Remove(3): Has=%v Count=%d", r.Has(3), r.Count())
	}
	if r.Has(-1) || r.Has(1000) {
		t.Fatal("out-of-range members must be absent")
	}
	// Add beyond the initial capacity grows the bitset.
	r.Add(130)
	if !r.Has(130) || len(r) != 3 {
		t.Fatalf("grown roster: Has(130)=%v len=%d", r.Has(130), len(r))
	}
}

func TestRosterEqualIgnoresTrailingZeros(t *testing.T) {
	a := FullRoster(5)
	b := FullRoster(5)
	b = append(b, 0, 0) // longer backing array, same membership
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("rosters differing only in trailing zero words must be equal")
	}
	b.Add(64)
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("rosters with different members must not be equal")
	}
	var nilR Roster
	if !nilR.Equal(NewRoster(0)) {
		t.Fatal("nil and empty rosters are both the empty set")
	}
}

func TestRosterCloneAndBools(t *testing.T) {
	r := FullRoster(6)
	r.Remove(2)
	c := r.Clone()
	c.Add(2)
	if r.Has(2) {
		t.Fatal("Clone must not share backing storage")
	}
	if Roster(nil).Clone() != nil {
		t.Fatal("Clone of nil roster must stay nil")
	}
}

// TestRosterOverWire sends a roster-stamped header over both networks and
// checks the receiver sees the same membership, and that messages without a
// roster arrive with a nil one.
func TestRosterOverWire(t *testing.T) {
	for _, impl := range implementations {
		impl := impl
		t.Run(impl.name, func(t *testing.T) {
			n := impl.mk()
			defer n.Close()
			a, err := n.Endpoint("a")
			if err != nil {
				t.Fatal(err)
			}
			b, err := n.Endpoint("b")
			if err != nil {
				t.Fatal(err)
			}
			roster := FullRoster(8)
			roster.Remove(5)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			hdr := Header{Session: 9, Round: 3, Roster: roster}
			if err := a.Send(ctx, "b", "roster", hdr, []byte("x")); err != nil {
				t.Fatal(err)
			}
			msg, err := b.Recv(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !msg.Roster.Equal(roster) || msg.Roster.Count() != 7 {
				t.Fatalf("received roster %v, want %v", msg.Roster, roster)
			}
			// Mutating the sender's roster after Send must not affect the
			// delivered copy.
			roster.Remove(0)
			if !msg.Roster.Has(0) {
				t.Fatal("delivered roster aliases the sender's buffer")
			}
			// The changed roster is delivered as it now is, and the one
			// delivered before it stays as it was.
			if err := a.Send(ctx, "b", "roster", Header{Session: 9, Round: 4, Roster: roster}, []byte("z")); err != nil {
				t.Fatal(err)
			}
			next, err := b.Recv(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if next.Roster.Has(0) || !msg.Roster.Has(0) {
				t.Fatalf("rosters delivered %v then %v, want member 0 gone from the second only", msg.Roster, next.Roster)
			}
			if err := a.Send(ctx, "b", "plain", Header{Session: 9, Round: 3}, []byte("y")); err != nil {
				t.Fatal(err)
			}
			msg, err = b.Recv(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if msg.Roster != nil {
				t.Fatalf("roster-free message arrived with roster %v", msg.Roster)
			}
		})
	}
}

func TestFrameRosterRoundtrip(t *testing.T) {
	roster := FullRoster(100)
	roster.Remove(42)
	msg := Message{
		From: "a", To: "b", Kind: "k",
		Session: 1, Round: 2, Seq: 3,
		Roster:  roster,
		Payload: []byte("payload"),
	}
	frame, err := appendFrame(nil, &msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeFrame(frame[4:], new(frameMemo))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Roster.Equal(roster) {
		t.Fatalf("decoded roster %v, want %v", got.Roster, roster)
	}
	if string(got.Payload) != "payload" || got.Kind != "k" {
		t.Fatalf("frame fields corrupted by roster section: %+v", got)
	}
}

// TestFrameRosterWordBound pins the roster section at what its uint16 word
// count can say: 65,535 words round-trip, and 65,536 — which a wider bound
// would frame with count 0, reading the roster and names back as payload —
// is refused at encode.
func TestFrameRosterWordBound(t *testing.T) {
	widest := make(Roster, math.MaxUint16)
	widest[0], widest[len(widest)-1] = 1, 1<<63
	frame, err := appendFrame(nil, &Message{From: "a", To: "b", Kind: "k", Roster: widest, Payload: []byte("p")})
	if err != nil {
		t.Fatalf("%d-word roster: %v", len(widest), err)
	}
	got, err := decodeFrame(frame[4:], new(frameMemo))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Roster) != len(widest) || !got.Roster.Equal(widest) || got.Kind != "k" || string(got.Payload) != "p" {
		t.Fatalf("%d-word roster did not round-trip: %d words, kind %q, %d payload bytes", len(widest), len(got.Roster), got.Kind, len(got.Payload))
	}
	over := make(Roster, math.MaxUint16+1)
	if _, err := appendFrame(nil, &Message{From: "a", To: "b", Kind: "k", Roster: over}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("%d-word roster: err = %v, want ErrBadFrame", len(over), err)
	}
}

// TestEvictSweepsStaleRounds pins the stale counter for the satellite fix: a
// receiver that advanced past a round evicts the stashed leftovers, and the
// transport counts them, while newer-round messages survive the sweep.
func TestEvictSweepsStaleRounds(t *testing.T) {
	for _, impl := range implementations {
		impl := impl
		t.Run(impl.name, func(t *testing.T) {
			n := impl.mk()
			defer n.Close()
			a, err := n.Endpoint("a")
			if err != nil {
				t.Fatal(err)
			}
			b, err := n.Endpoint("b")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			// Stash three messages from rounds 1, 2, 3 by receiving with a
			// filter that only accepts round 4.
			for r := int32(1); r <= 3; r++ {
				if err := a.Send(ctx, "b", "share", Header{Session: 1, Round: r}, []byte{byte(r)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := a.Send(ctx, "b", "share", Header{Session: 1, Round: 4}, []byte{4}); err != nil {
				t.Fatal(err)
			}
			msg, err := b.RecvMatch(ctx, func(m Message) Verdict {
				if m.Round == 4 {
					return Accept
				}
				return Defer
			})
			if err != nil {
				t.Fatal(err)
			}
			if msg.Round != 4 {
				t.Fatalf("accepted round %d, want 4", msg.Round)
			}
			ev, ok := b.(Evictor)
			if !ok {
				t.Fatalf("%T does not implement Evictor", b)
			}
			// Advance past round 2: rounds 1-2 are stale, round 3 survives.
			evicted := ev.Evict(func(m Message) Verdict {
				if m.Round < 3 {
					return Drop
				}
				return Defer
			})
			if evicted != 2 {
				t.Fatalf("Evict removed %d messages, want 2", evicted)
			}
			if got := n.Stats().StaleDropped; got != 2 {
				t.Fatalf("Stats().StaleDropped = %d, want exactly 2", got)
			}
			// The surviving round-3 message is still deliverable.
			msg, err = b.RecvMatch(ctx, func(m Message) Verdict {
				if m.Round == 3 {
					return Accept
				}
				return Defer
			})
			if err != nil {
				t.Fatal(err)
			}
			if msg.Round != 3 {
				t.Fatalf("post-evict delivery round %d, want 3", msg.Round)
			}
			// A nil filter evicts nothing.
			if got := ev.Evict(nil); got != 0 {
				t.Fatalf("Evict(nil) = %d, want 0", got)
			}
		})
	}
}

// TestInProcRosterConcurrentSends: senders on one in-process endpoint share
// its memo of the last roster delivered. Each reuses one roster buffer,
// dropping its own member on odd rounds and restoring it on even ones, and
// every message must arrive with the roster it was sent with.
func TestInProcRosterConcurrentSends(t *testing.T) {
	n := NewInProc()
	defer n.Close()
	a, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	const senders, rounds = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := FullRoster(8)
			for i := 0; i < rounds; i++ {
				if i%2 == 1 {
					r.Remove(g)
				} else {
					r.Add(g)
				}
				if err := a.Send(ctx, "b", "k", Header{Round: int32(i), Roster: r}, []byte{byte(g)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for k := 0; k < senders*rounds; k++ {
		msg, err := b.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		g, odd := int(msg.Payload[0]), msg.Round%2 == 1
		want := 8
		if odd {
			want = 7
		}
		if msg.Roster.Has(g) == odd || msg.Roster.Count() != want {
			t.Fatalf("sender %d round %d: roster %v, want %d members with %d present = %v", g, msg.Round, msg.Roster, want, g, !odd)
		}
	}
	wg.Wait()
}

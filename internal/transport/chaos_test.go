package transport

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestChaosKillDropsSilently(t *testing.T) {
	c := NewChaos(NewInProc())
	defer c.Close()
	a, err := c.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	c.Kill("a")
	if err := a.Send(ctx, "b", "k", Header{}, []byte("lost")); err != nil {
		t.Fatalf("dropped send must succeed silently, got %v", err)
	}
	if got := c.Stats().Messages; got != 0 {
		t.Fatalf("dropped message reached the network: Messages = %d", got)
	}
	c.Heal("a")
	if err := a.Send(ctx, "b", "k", Header{}, []byte("alive")); err != nil {
		t.Fatal(err)
	}
	msg, err := b.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if string(msg.Payload) != "alive" {
		t.Fatalf("post-heal payload %q", msg.Payload)
	}

	// Kill cuts both directions: sends to the dead node and from it vanish.
	c.Kill("b")
	if err := a.Send(ctx, "b", "k", Header{}, []byte("lost too")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(ctx, "a", "k", Header{}, []byte("from the grave")); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Messages; got != 1 {
		t.Fatalf("Messages = %d, want 1 (only the healed send)", got)
	}
}

// TestChaosAtRound: a round trigger fires once, however many senders cross
// its round at the same time, before any of their faults are looked up; a
// trigger for a round no send reaches never fires.
func TestChaosAtRound(t *testing.T) {
	c := NewChaos(NewInProc())
	defer c.Close()
	a, err := c.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	var fired atomic.Int32
	c.AtRound(3, func() {
		fired.Add(1)
		c.Kill("b")
	})
	c.AtRound(100, func() { t.Error("the trigger of a round never reached fired") })

	if err := a.Send(ctx, "b", "k", Header{Round: 2}, nil); err != nil {
		t.Fatal(err)
	}
	if got := fired.Load(); got != 0 {
		t.Fatalf("fired %d times before any send of round 3", got)
	}
	const senders = 8
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.Send(ctx, "b", "k", Header{Round: 3 + int32(i%2)}, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := fired.Load(); got != 1 {
		t.Errorf("fired %d times, want exactly once", got)
	}
	// Every send of round ≥ 3, the first included, met the kill.
	if got := c.Stats().Messages; got != 1 {
		t.Errorf("Messages = %d, want 1 (only the round-2 send)", got)
	}
	if msg, err := b.Recv(ctx); err != nil || msg.Round != 2 {
		t.Errorf("b received round %d (err %v), want the round-2 send", msg.Round, err)
	}
}

func TestChaosDelayStallsSender(t *testing.T) {
	c := NewChaos(NewInProc())
	defer c.Close()
	a, err := c.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Endpoint("b"); err != nil {
		t.Fatal(err)
	}
	c.Delay("a", 50*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := a.Send(ctx, "b", "k", Header{}, nil); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("delayed send completed in %v, want >= 50ms", d)
	}
	// Cancellation interrupts the injected delay.
	c.Delay("a", time.Minute)
	short, cancelShort := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancelShort()
	if err := a.Send(short, "b", "k", Header{}, nil); err == nil {
		t.Fatal("send through a minute-long delay must respect cancellation")
	}
}

func TestChaosForwardsEvict(t *testing.T) {
	c := NewChaos(NewInProc())
	defer c.Close()
	a, err := c.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.Send(ctx, "b", "old", Header{Round: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(ctx, "b", "new", Header{Round: 2}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvMatch(ctx, func(m Message) Verdict {
		if m.Round == 2 {
			return Accept
		}
		return Defer
	}); err != nil {
		t.Fatal(err)
	}
	ev, ok := b.(Evictor)
	if !ok {
		t.Fatalf("%T does not implement Evictor", b)
	}
	if got := ev.Evict(func(m Message) Verdict { return Drop }); got != 1 {
		t.Fatalf("Evict through chaos wrapper = %d, want 1", got)
	}
	if got := c.Stats().StaleDropped; got != 1 {
		t.Fatalf("StaleDropped = %d, want 1", got)
	}
}

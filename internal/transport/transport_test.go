package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// networks under test; each constructor returns a fresh Network.
var implementations = []struct {
	name string
	mk   func() Network
}{
	{"inproc", func() Network { return NewInProc() }},
	{"tcp", func() Network { return NewTCP() }},
}

func TestSendRecv(t *testing.T) {
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
			if err := a.Send(context.Background(), "b", "greet", Header{}, []byte("hello")); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			msg, err := b.Recv(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if msg.From != "a" || msg.To != "b" || msg.Kind != "greet" || string(msg.Payload) != "hello" {
				t.Errorf("got %+v", msg)
			}
		})
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
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
			hdr := Header{Session: 42, Round: 7}
			for i := 0; i < 2; i++ {
				if err := a.Send(context.Background(), "b", "env", hdr, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			for i := 0; i < 2; i++ {
				msg, err := b.Recv(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if msg.Session != 42 || msg.Round != 7 {
					t.Fatalf("envelope = session %d round %d, want 42/7", msg.Session, msg.Round)
				}
				if got := msg.Header(); got.Session != hdr.Session || got.Round != hdr.Round || !got.Roster.Equal(hdr.Roster) {
					t.Fatalf("Header() = %+v, want %+v", got, hdr)
				}
				if want := uint64(i + 1); msg.Seq != want {
					t.Fatalf("seq = %d, want %d (per-sender monotonic)", msg.Seq, want)
				}
			}
		})
	}
}

func TestRecvMatchDemux(t *testing.T) {
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
			// Round 1 stale, round 3 future, round 2 wanted — sent in that order.
			for _, r := range []int32{1, 3, 2} {
				if err := a.Send(ctx, "b", "m", Header{Session: 9, Round: r}, []byte{byte(r)}); err != nil {
					t.Fatal(err)
				}
			}
			want := func(round int32) Filter {
				return func(m Message) Verdict {
					switch {
					case m.Round < round:
						return Drop
					case m.Round > round:
						return Defer
					}
					return Accept
				}
			}
			msg, err := b.RecvMatch(ctx, want(2))
			if err != nil {
				t.Fatal(err)
			}
			if msg.Round != 2 {
				t.Fatalf("RecvMatch delivered round %d, want 2", msg.Round)
			}
			// The deferred round-3 message must surface from the reorder
			// buffer without any further send.
			msg, err = b.RecvMatch(ctx, want(3))
			if err != nil {
				t.Fatal(err)
			}
			if msg.Round != 3 {
				t.Fatalf("reorder buffer delivered round %d, want 3", msg.Round)
			}
			if got := n.Stats().StaleDropped; got != 1 {
				t.Errorf("StaleDropped = %d, want 1 (the round-1 message)", got)
			}
		})
	}
}

func TestRecvMatchBufferPreservesOrder(t *testing.T) {
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
			for i := 0; i < 5; i++ {
				if err := a.Send(ctx, "b", "later", Header{Round: 1}, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := a.Send(ctx, "b", "now", Header{Round: 0}, nil); err != nil {
				t.Fatal(err)
			}
			only := func(kind string) Filter {
				return func(m Message) Verdict {
					if m.Kind != kind {
						return Defer
					}
					return Accept
				}
			}
			if msg, err := b.RecvMatch(ctx, only("now")); err != nil || msg.Kind != "now" {
				t.Fatalf("RecvMatch(now) = %+v, %v", msg, err)
			}
			for i := 0; i < 5; i++ {
				msg, err := b.RecvMatch(ctx, only("later"))
				if err != nil {
					t.Fatal(err)
				}
				if msg.Payload[0] != byte(i) {
					t.Fatalf("deferred messages reordered: got %d at position %d", msg.Payload[0], i)
				}
			}
		})
	}
}

func TestUnknownEndpoint(t *testing.T) {
	for _, impl := range implementations {
		impl := impl
		t.Run(impl.name, func(t *testing.T) {
			n := impl.mk()
			defer n.Close()
			a, err := n.Endpoint("a")
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Send(context.Background(), "ghost", "k", Header{}, nil); !errors.Is(err, ErrUnknownEndpoint) {
				t.Errorf("send to ghost: err = %v, want ErrUnknownEndpoint", err)
			}
		})
	}
}

func TestDuplicateEndpoint(t *testing.T) {
	for _, impl := range implementations {
		impl := impl
		t.Run(impl.name, func(t *testing.T) {
			n := impl.mk()
			defer n.Close()
			if _, err := n.Endpoint("x"); err != nil {
				t.Fatal(err)
			}
			if _, err := n.Endpoint("x"); !errors.Is(err, ErrDuplicateEndpoint) {
				t.Errorf("duplicate: err = %v, want ErrDuplicateEndpoint", err)
			}
		})
	}
}

func TestRecvContextCancel(t *testing.T) {
	for _, impl := range implementations {
		impl := impl
		t.Run(impl.name, func(t *testing.T) {
			n := impl.mk()
			defer n.Close()
			a, err := n.Endpoint("a")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			if _, err := a.Recv(ctx); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("Recv on empty inbox: err = %v, want DeadlineExceeded", err)
			}
		})
	}
}

func TestSendContextCanceled(t *testing.T) {
	for _, impl := range implementations {
		impl := impl
		t.Run(impl.name, func(t *testing.T) {
			n := impl.mk()
			defer n.Close()
			a, err := n.Endpoint("a")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := n.Endpoint("b"); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := a.Send(ctx, "b", "k", Header{}, nil); !errors.Is(err, context.Canceled) {
				t.Errorf("Send with canceled ctx: err = %v, want context.Canceled", err)
			}
		})
	}
}

func TestClosedEndpoint(t *testing.T) {
	for _, impl := range implementations {
		impl := impl
		t.Run(impl.name, func(t *testing.T) {
			n := impl.mk()
			defer n.Close()
			a, err := n.Endpoint("a")
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if err := a.Send(context.Background(), "a", "k", Header{}, nil); !errors.Is(err, ErrClosed) {
				t.Errorf("send after close: err = %v, want ErrClosed", err)
			}
			// The name becomes free again.
			if _, err := n.Endpoint("a"); err != nil {
				t.Errorf("re-register after close: %v", err)
			}
		})
	}
}

func TestStatsCountPayloadBytes(t *testing.T) {
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
			payload := make([]byte, 1000)
			for i := 0; i < 5; i++ {
				if err := a.Send(context.Background(), "b", "blob", Header{}, payload); err != nil {
					t.Fatal(err)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			for i := 0; i < 5; i++ {
				if _, err := b.Recv(ctx); err != nil {
					t.Fatal(err)
				}
			}
			st := n.Stats()
			if st.Messages != 5 || st.Bytes != 5000 {
				t.Errorf("stats = %+v, want 5 msgs / 5000 bytes", st)
			}
		})
	}
}

func TestManyToOneConcurrent(t *testing.T) {
	for _, impl := range implementations {
		impl := impl
		t.Run(impl.name, func(t *testing.T) {
			const senders, msgs = 8, 20
			n := impl.mk()
			defer n.Close()
			sink, err := n.Endpoint("sink")
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				name := fmt.Sprintf("s%d", s)
				ep, err := n.Endpoint(name)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(ep Endpoint) {
					defer wg.Done()
					for i := 0; i < msgs; i++ {
						if err := ep.Send(context.Background(), "sink", "n", Header{}, []byte{byte(i)}); err != nil {
							t.Errorf("send: %v", err)
							return
						}
					}
				}(ep)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			got := make(map[string]int)
			for i := 0; i < senders*msgs; i++ {
				msg, err := sink.Recv(ctx)
				if err != nil {
					t.Fatalf("recv %d: %v", i, err)
				}
				got[msg.From]++
			}
			wg.Wait()
			for s := 0; s < senders; s++ {
				if got[fmt.Sprintf("s%d", s)] != msgs {
					t.Errorf("sender s%d delivered %d, want %d", s, got[fmt.Sprintf("s%d", s)], msgs)
				}
			}
		})
	}
}

func TestPerSenderOrdering(t *testing.T) {
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
			for i := 0; i < 50; i++ {
				if err := a.Send(context.Background(), "b", "seq", Header{}, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			var lastSeq uint64
			for i := 0; i < 50; i++ {
				msg, err := b.Recv(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if msg.Payload[0] != byte(i) {
					t.Fatalf("out of order: got %d at position %d", msg.Payload[0], i)
				}
				if msg.Seq <= lastSeq {
					t.Fatalf("seq not monotonic: %d after %d", msg.Seq, lastSeq)
				}
				lastSeq = msg.Seq
			}
		})
	}
}

func TestNetworkCloseUnblocksRecv(t *testing.T) {
	for _, impl := range implementations {
		impl := impl
		t.Run(impl.name, func(t *testing.T) {
			n := impl.mk()
			a, err := n.Endpoint("a")
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := a.Recv(context.Background())
				done <- err
			}()
			time.Sleep(10 * time.Millisecond)
			if err := n.Close(); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if !errors.Is(err, ErrClosed) {
					t.Errorf("Recv after network close: err = %v, want ErrClosed", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Recv did not unblock on network close")
			}
		})
	}
}

func TestSelfSend(t *testing.T) {
	for _, impl := range implementations {
		impl := impl
		t.Run(impl.name, func(t *testing.T) {
			n := impl.mk()
			defer n.Close()
			a, err := n.Endpoint("a")
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Send(context.Background(), "a", "loop", Header{}, []byte("x")); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			msg, err := a.Recv(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if msg.From != "a" || string(msg.Payload) != "x" {
				t.Errorf("self send: got %+v", msg)
			}
		})
	}
}

func TestLargePayloadOverTCP(t *testing.T) {
	// A share of one float per training row runs to megabytes at scale; the
	// framing must survive such payloads intact.
	n := NewTCP()
	defer n.Close()
	a, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 4<<20) // 4 MiB
	for i := range payload {
		payload[i] = byte(i * 2654435761)
	}
	if err := a.Send(context.Background(), "b", "big", Header{Session: 1, Round: 3}, payload); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	msg, err := b.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Payload) != len(payload) {
		t.Fatalf("payload truncated: %d of %d bytes", len(msg.Payload), len(payload))
	}
	for i := range payload {
		if msg.Payload[i] != payload[i] {
			t.Fatalf("payload corrupted at byte %d", i)
		}
	}
	if msg.Session != 1 || msg.Round != 3 {
		t.Fatalf("envelope lost on large frame: %+v", msg.Header())
	}
}

func TestFrameRejectsWrongVersion(t *testing.T) {
	frame, err := appendFrame(nil, &Message{From: "a", To: "b", Kind: "k", Payload: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	body := frame[4:]
	if _, err := decodeFrame(body, new(frameNames)); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	bad := append([]byte(nil), body...)
	bad[0] = frameVersion + 1
	if _, err := decodeFrame(bad, new(frameNames)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("future-version frame: err = %v, want ErrBadFrame", err)
	}
}

// TestDecodeFrameReusesNames pins the receive path's name reuse: a frame whose
// From, To and Kind repeat the previous frame's on the same connection takes
// its strings from frameNames, so decoding it allocates nothing (the payload
// aliases the body), and a changed name is copied out and recorded.
func TestDecodeFrameReusesNames(t *testing.T) {
	encode := func(msg *Message) []byte {
		t.Helper()
		frame, err := appendFrame(nil, msg)
		if err != nil {
			t.Fatal(err)
		}
		return frame[4:]
	}
	first := encode(&Message{From: "mapper-3", To: "reducer", Kind: "securesum.share", Round: 1, Payload: []byte{1, 2}})
	second := encode(&Message{From: "mapper-3", To: "reducer", Kind: "securesum.share", Round: 2, Payload: []byte{3, 4, 5}})
	var names frameNames
	if _, err := decodeFrame(first, &names); err != nil {
		t.Fatal(err)
	}
	var msg Message
	if n := testing.AllocsPerRun(100, func() {
		var err error
		if msg, err = decodeFrame(second, &names); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a same-named frame: %.0f allocations per decode, want 0", n)
	}
	if msg.From != "mapper-3" || msg.To != "reducer" || msg.Kind != "securesum.share" || msg.Round != 2 || !bytes.Equal(msg.Payload, []byte{3, 4, 5}) {
		t.Fatalf("decoded %+v", msg)
	}
	third := encode(&Message{From: "mapper-3", To: "reducer", Kind: "securesum.seed"})
	if msg, err := decodeFrame(third, &names); err != nil || msg.Kind != "securesum.seed" || names[2] != "securesum.seed" {
		t.Fatalf("a changed kind: decoded %q, recorded %q, err %v", msg.Kind, names[2], err)
	}
}

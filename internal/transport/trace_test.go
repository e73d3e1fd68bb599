package transport

import (
	"context"
	"testing"
	"time"

	"github.com/ppml-go/ppml/internal/telemetry"
)

// TestFrameFixedHeaderPinned pins the frame v6 envelope overhead byte for
// byte. The trace context (TraceHi, TraceLo) costs exactly 16 bytes per
// message on top of the 21-byte coordination envelope; any change to this
// constant is a wire-format break that must bump frameVersion.
func TestFrameFixedHeaderPinned(t *testing.T) {
	if frameVersion != 6 {
		t.Fatalf("frameVersion = %d, want 6", frameVersion)
	}
	if frameFixedHeader != 37 {
		t.Fatalf("frameFixedHeader = %d, want 37", frameFixedHeader)
	}
	// version(1) + session(8) + round(4) + seq(8)
	const coordination = 21
	// + traceHi(8) + traceLo(8)
	if frameFixedHeader != coordination+16 {
		t.Fatalf("frameFixedHeader = %d, want %d", frameFixedHeader, coordination+16)
	}
}

// TestFrameLengthExact pins the full per-message frame size formula so the
// wiretap-parity tests in mapreduce can compute expected traffic in closed
// form: fixed header + roster section + three length-prefixed strings +
// payload, behind a 4-byte length prefix.
func TestFrameLengthExact(t *testing.T) {
	cases := []Message{
		{From: "a", To: "b", Kind: "k"},
		{From: "mapper-7", To: "reducer", Kind: "mr.plainshare", Session: 9,
			Round: 3, Seq: 44, Payload: make([]byte, 808)},
		{From: "mapper-1", To: "mapper-2", Kind: "securesum.seed",
			Trace:  telemetry.TraceID{Hi: 1, Lo: 2},
			Roster: Roster{0xff}, Payload: make([]byte, 32)},
	}
	for _, msg := range cases {
		frame, err := appendFrame(nil, &msg)
		if err != nil {
			t.Fatal(err)
		}
		want := 4 + frameFixedHeader + 2 + 8*len(msg.Roster) + 3*2 +
			len(msg.From) + len(msg.To) + len(msg.Kind) + len(msg.Payload)
		if len(frame) != want {
			t.Fatalf("frame for %q is %d bytes, want %d", msg.Kind, len(frame), want)
		}
	}
}

func TestFrameTraceRoundtrip(t *testing.T) {
	msg := Message{
		From: "reducer", To: "mapper-3", Kind: "mr.broadcast",
		Session: 77, Round: 12, Seq: 101,
		Trace:   telemetry.TraceID{Hi: 0xdeadbeefcafef00d, Lo: 0x0123456789abcdef},
		Roster:  Roster{0b1011},
		Payload: []byte{1, 2, 3},
	}
	frame, err := appendFrame(nil, &msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeFrame(frame[4:], new(frameMemo))
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != msg.Trace {
		t.Fatalf("trace id mangled: got %v, want %v", got.Trace, msg.Trace)
	}
	if hdr := got.Header(); hdr.Trace != msg.Trace {
		t.Fatalf("Header() dropped the trace id: %+v", hdr)
	}
}

// TestTraceContextPropagates sends one traced message over both networks and
// checks the receiver sees the sender's trace context.
func TestTraceContextPropagates(t *testing.T) {
	for _, mk := range []struct {
		name string
		net  func() Network
	}{
		{"inproc", func() Network { return NewInProc() }},
		{"tcp", func() Network { return NewTCP() }},
	} {
		t.Run(mk.name, func(t *testing.T) {
			n := mk.net()
			defer n.Close()
			a, err := n.Endpoint("a")
			if err != nil {
				t.Fatal(err)
			}
			b, err := n.Endpoint("b")
			if err != nil {
				t.Fatal(err)
			}
			hdr := Header{Session: 5, Round: 2, Trace: telemetry.TraceID{Hi: 7, Lo: 8}}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := a.Send(ctx, "b", "k", hdr, []byte("x")); err != nil {
				t.Fatal(err)
			}
			msg, err := b.Recv(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if msg.Trace != hdr.Trace {
				t.Fatalf("%s dropped the trace id: %+v", mk.name, msg)
			}
		})
	}
}

// TestJournalRecordsWireEvents checks both networks emit net.send/net.recv
// journal events with the envelope metadata when a journal is attached, and
// stay silent without one.
func TestJournalRecordsWireEvents(t *testing.T) {
	for _, mk := range []struct {
		name string
		net  func() interface {
			Network
			SetTelemetry(*telemetry.Registry)
		}
	}{
		{"inproc", func() interface {
			Network
			SetTelemetry(*telemetry.Registry)
		} {
			return NewInProc()
		}},
		{"tcp", func() interface {
			Network
			SetTelemetry(*telemetry.Registry)
		} {
			return NewTCP()
		}},
	} {
		t.Run(mk.name, func(t *testing.T) {
			n := mk.net()
			defer n.Close()
			reg := telemetry.NewRegistry(telemetry.WithJournal(64))
			n.SetTelemetry(reg)
			a, err := n.Endpoint("a")
			if err != nil {
				t.Fatal(err)
			}
			b, err := n.Endpoint("b")
			if err != nil {
				t.Fatal(err)
			}
			tr := telemetry.TraceID{Hi: 1, Lo: 2}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := a.Send(ctx, "b", "mr.broadcast", Header{Round: 4, Trace: tr}, []byte("abc")); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Recv(ctx); err != nil {
				t.Fatal(err)
			}
			var sends, recvs int
			for _, e := range reg.Journal().Snapshot() {
				switch e.Event {
				case "net.send":
					sends++
					if e.Node != "a" || e.Peer != "b" || e.Kind != "mr.broadcast" ||
						e.Trace != tr || e.Round != 4 || e.Bytes != 3 {
						t.Fatalf("net.send event mangled: %+v", e)
					}
				case "net.recv":
					recvs++
					if e.Node != "b" || e.Peer != "a" || e.Kind != "mr.broadcast" ||
						e.Trace != tr || e.Round != 4 || e.Bytes != 3 {
						t.Fatalf("net.recv event mangled: %+v", e)
					}
				}
			}
			if sends != 1 || recvs != 1 {
				t.Fatalf("journal has %d sends / %d recvs, want 1/1", sends, recvs)
			}
		})
	}
}

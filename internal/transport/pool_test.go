package transport

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"

	"github.com/ppml-go/ppml/internal/telemetry"
)

// onePool runs the test on one P, where a sync.Pool hands back what was
// just put in it, and skips under the race detector, which drops a quarter
// of all Puts.
func onePool(t *testing.T) {
	t.Helper()
	var p sync.Pool
	x := new(int)
	for i := 0; i < 64; i++ {
		p.Put(x)
		if p.Get() != x {
			t.Skip("sync.Pool drops Puts at random under the race detector")
		}
	}
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// tcpPair returns a TCP network with endpoints "a" and "b".
func tcpPair(t *testing.T) (a, b Endpoint) {
	t.Helper()
	n := NewTCP()
	t.Cleanup(func() { n.Close() })
	a, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	if b, err = n.Endpoint("b"); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// roundTrip sends payload from a to b and returns what b receives.
func roundTrip(t *testing.T, a, b Endpoint, payload []byte) Message {
	t.Helper()
	if err := a.Send(deadline(t), "b", "k", Header{Round: 1}, payload); err != nil {
		t.Fatal(err)
	}
	msg, err := b.Recv(deadline(t))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(msg.Payload, payload) {
		t.Fatalf("payload of %d bytes corrupted in transit", len(payload))
	}
	return msg
}

// TestReleasedBodyIsReused: a frame body handed back by Release is the one
// the next frame of its size class is read into, so a steady stream of
// frames of a round's sizes allocates no bodies. The two frames differ in
// length but share the 1 KiB class.
func TestReleasedBodyIsReused(t *testing.T) {
	onePool(t)
	a, b := tcpPair(t)
	first := roundTrip(t, a, b, bytes.Repeat([]byte{1}, 600))
	body := first.body
	if body == nil {
		t.Fatal("a 600-byte frame was not read into a pooled body")
	}
	first.Release()
	second := roundTrip(t, a, b, bytes.Repeat([]byte{2}, 700))
	if second.body != body {
		t.Error("the next frame of the class was not read into the released body")
	}
	second.Release()
}

// TestReleaseTwice: a second Release of a message does nothing. Had it put
// the body back again, the pool would hand one buffer to two frames.
func TestReleaseTwice(t *testing.T) {
	onePool(t)
	a, b := tcpPair(t)
	msg := roundTrip(t, a, b, []byte("share"))
	msg.Release()
	msg.Release()
	if msg.body != nil || msg.Payload != nil {
		t.Fatal("Release left the body or the payload on the message")
	}
	if x, y := getBody(5), getBody(5); x == y {
		t.Fatal("a body released twice was handed out twice")
	}
	inproc := Message{Payload: []byte("in-process")}
	inproc.Release()
	if string(inproc.Payload) != "in-process" {
		t.Fatal("Release touched an in-process message, which has no pooled body")
	}
}

// TestLargeFrameNotPooled: a body above maxPooledFrame is read into a slice
// of its own, which Release leaves to the collector, so the pool never pins
// a pathological allocation.
func TestLargeFrameNotPooled(t *testing.T) {
	a, b := tcpPair(t)
	payload := make([]byte, maxPooledFrame+1)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	msg := roundTrip(t, a, b, payload)
	if msg.body != nil {
		t.Fatalf("a %d-byte frame took a pooled body", len(payload))
	}
	msg.Release()
	if len(msg.Payload) != len(payload) {
		t.Fatal("Release cleared an unpooled message")
	}
}

// TestSendWritesAppendFrame pins the wire format to appendFrame: the bytes a
// Send puts on a raw socket, the header and the payload written by one
// writev, are appendFrame's bytes for the same message, for a frame with a
// roster, a trace and a payload and for one with none.
func TestSendWritesAppendFrame(t *testing.T) {
	n := NewTCP()
	defer n.Close()
	a, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	n.mu.Lock()
	n.addrs["raw"] = ln.Addr().String()
	n.mu.Unlock()

	hdr := Header{Session: 9, Round: 4, Roster: Roster{0b1011}, Trace: telemetry.TraceID{Hi: 3, Lo: 5}}
	sent := []Message{
		{From: "a", To: "raw", Kind: "securesum.share", Session: 9, Round: 4, Seq: 1, Roster: hdr.Roster, Trace: hdr.Trace, Payload: []byte("masked share")},
		{From: "a", To: "raw", Kind: "mr.stop", Seq: 2},
	}
	var want []byte
	for i := range sent {
		if want, err = appendFrame(want, &sent[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Send(deadline(t), "raw", sent[0].Kind, hdr, sent[0].Payload); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(deadline(t), "raw", sent[1].Kind, Header{}, nil); err != nil {
		t.Fatal(err)
	}
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got := make([]byte, len(want))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Send wrote\n%x\nappendFrame encodes\n%x", got, want)
	}
}

package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

// deadline returns a context that fails the test cleanly instead of hanging.
func deadline(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestTCPDialFailure exercises the connTo error path: the address book knows
// the peer but nothing listens there anymore.
func TestTCPDialFailure(t *testing.T) {
	n := NewTCP()
	defer n.Close()
	a, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}

	// Reserve a port, then free it so the dial is refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	n.addrs["ghost"] = dead
	n.mu.Unlock()

	err = a.Send(context.Background(), "ghost", "k", Header{}, []byte("x"))
	if err == nil {
		t.Fatal("Send to a dead address succeeded")
	}
	if !strings.Contains(err.Error(), "dial") {
		t.Fatalf("Send error = %v, want a dial failure", err)
	}

	// The failed dial must not poison the endpoint.
	if _, err := n.Endpoint("b"); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(context.Background(), "b", "k", Header{}, []byte("x")); err != nil {
		t.Fatalf("Send after dial failure: %v", err)
	}
}

// TestTCPUnknownEndpoint checks Send to a name never registered.
func TestTCPUnknownEndpoint(t *testing.T) {
	n := NewTCP()
	defer n.Close()
	a, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(context.Background(), "nobody", "k", Header{}, nil); !errors.Is(err, ErrUnknownEndpoint) {
		t.Fatalf("Send to unregistered name = %v, want ErrUnknownEndpoint", err)
	}
}

// TestTCPPeerCloseMidMessage writes a frame header advertising a body that
// never arrives, then closes. The receiver must discard the partial message
// and keep serving other peers.
func TestTCPPeerCloseMidMessage(t *testing.T) {
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
	addrB, err := n.addressOf("b")
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", addrB)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1024) // promise 1 KiB, deliver none
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}

	// b must still receive a well-formed message from a.
	if err := a.Send(context.Background(), "b", "alive", Header{}, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	msg, err := b.Recv(deadline(t))
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != "alive" || string(msg.Payload) != "payload" {
		t.Fatalf("Recv = %+v, want the post-breakage message", msg)
	}
}

// TestTCPOversizedFrameRejectedByReceiver sends a header whose advertised
// length exceeds maxFrameBytes; the receiver must drop the connection without
// allocating the body, and stay healthy.
func TestTCPOversizedFrameRejectedByReceiver(t *testing.T) {
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
	addrB, err := n.addressOf("b")
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", addrB)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrameBytes+1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	// The receiver drops the connection; our next read sees EOF/reset.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(hdr[:]); err == nil {
		t.Fatal("connection stayed open after oversized frame header")
	}

	// The endpoint itself survives.
	if err := a.Send(context.Background(), "b", "alive", Header{}, []byte("still here")); err != nil {
		t.Fatal(err)
	}
	if msg, err := b.Recv(deadline(t)); err != nil || msg.Kind != "alive" {
		t.Fatalf("Recv after oversized frame = %+v, %v", msg, err)
	}
}

// TestTCPOversizedFrameRejectedBySender checks the send-side bound: a payload
// above maxFrameBytes never reaches the wire.
func TestTCPOversizedFrameRejectedBySender(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a >64 MiB payload")
	}
	n := NewTCP()
	defer n.Close()
	a, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Endpoint("b"); err != nil {
		t.Fatal(err)
	}
	err = a.Send(context.Background(), "b", "huge", Header{}, make([]byte, maxFrameBytes+1))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("Send(oversized) = %v, want ErrFrameTooLarge", err)
	}
	if got := n.Stats().Messages; got != 0 {
		t.Fatalf("oversized send was counted: %d messages", got)
	}
}

// TestTCPCloseErrorPropagation: Close reports the first endpoint failure but
// still tears everything down; a second Close is a no-op.
func TestTCPCloseTwice(t *testing.T) {
	n := NewTCP()
	if _, err := n.Endpoint("a"); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := n.Endpoint("late"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Endpoint after Close = %v, want ErrClosed", err)
	}
}

// TestFrameRejectsVersion5 hands the decoder a well-formed frame of the
// previous wire version (41-byte fixed header: an attempt word after the
// round): it is refused by its version byte like any other foreign version,
// never misparsed under the current 37-byte layout.
func TestFrameRejectsVersion5(t *testing.T) {
	frame, err := appendFrame(nil, &Message{From: "a", To: "b", Kind: "k", Session: 7, Round: 3, Roster: Roster{0b101}, Payload: []byte("payload")})
	if err != nil {
		t.Fatal(err)
	}
	body := frame[4:]
	v5 := append([]byte{5}, body[1:13]...) // session, round
	v5 = binary.BigEndian.AppendUint32(v5, 1)
	v5 = append(v5, body[13:]...)
	if _, err := decodeFrame(v5, new(frameMemo)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("version-5 frame: err = %v, want ErrBadFrame", err)
	}
}

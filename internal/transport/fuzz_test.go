package transport

import (
	"bytes"
	"testing"
)

// FuzzWireDecode feeds arbitrary bytes to the TCP frame decoder: it must
// reject malformed or wrong-version frames with an error (never panic or
// over-allocate), and any frame it accepts must re-encode — envelope fields
// included — to exactly the same bytes, so the wire format is canonical on
// the accepted set.
func FuzzWireDecode(f *testing.F) {
	seed := []*Message{
		{},
		{From: "a", To: "b", Kind: "greet", Payload: []byte("hello")},
		{From: "mapper-3", To: "reducer", Kind: "securesum.share",
			Session: 42, Round: 7, Seq: 19, Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{From: "x", To: "y", Kind: "k", Session: ^uint64(0), Round: -1, Seq: ^uint64(0)},
		{From: "mapper-1", To: "reducer", Kind: "securesum.share", Session: 5, Round: 3, Seq: 8,
			Roster: Roster{0b1011, 1 << 63}, Payload: []byte{9, 9, 9}},
	}
	for _, msg := range seed {
		frame, err := appendFrame(nil, msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:]) // decodeFrame sees the body, not the length prefix
	}
	f.Add([]byte{})
	f.Add([]byte{frameVersion})
	f.Add([]byte{frameVersion + 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, body []byte) {
		msg, err := decodeFrame(body, new(frameNames))
		if err != nil {
			return
		}
		frame, err := appendFrame(nil, &msg)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if !bytes.Equal(frame[4:], body) {
			t.Fatalf("frame not canonical: decode(%x) re-encodes to %x", body, frame[4:])
		}
	})
}

package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"runtime"
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
		msg, err := decodeFrame(body, new(frameMemo))
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

// FuzzFrameStream feeds arbitrary byte streams through readFrame, the read
// and decode step of an inbound connection's loop, behind the loop's 4 KiB
// buffered reader. Walking the stream directly, it checks that readFrame
// returns exactly the stream's leading well-formed frames, each equal to the
// frame decoded in place from the stream (so no body is longer than its
// frame), and fails at the first frame that is not complete and well-formed, which is
// where the loop ends the connection. The heap the whole read allocates is
// bounded by the bytes the stream holds plus one pooled body: a length
// prefix alone, up to maxFrameBytes and beyond it, buys a peer nothing.
func FuzzFrameStream(f *testing.F) {
	var stream []byte
	var err error
	for _, msg := range []*Message{
		{From: "reducer", To: "mapper-0", Kind: "mr.broadcast", Session: 3, Round: 1, Seq: 1, Payload: bytes.Repeat([]byte{7}, 88)},
		{From: "reducer", To: "mapper-0", Kind: "mr.roster", Session: 3, Round: 1, Seq: 2, Roster: Roster{0b111}},
		{From: "reducer", To: "mapper-0", Kind: "mr.stop", Session: 3, Round: 2, Seq: 3},
	} {
		if stream, err = appendFrame(stream, msg); err != nil {
			f.Fatal(err)
		}
	}
	// Two connections of an elastic round, kinds and rosters alternating: the
	// decode memo's hits (a repeated kind or roster) and its misses (a
	// shrunk roster, a sixth kind evicting the oldest).
	var reducerIn, mapperIn []byte
	full, shrunk := Roster{0b1111}, Roster{0b0111}
	for r, roster := range []Roster{full, full, shrunk, full} {
		for _, msg := range []*Message{
			{From: "mapper-2", To: "reducer", Kind: "mr.ready", Session: 3, Round: int32(r)},
			{From: "mapper-2", To: "reducer", Kind: "securesum.share", Session: 3, Round: int32(r), Roster: roster, Payload: []byte{1, 2, 3}},
		} {
			if reducerIn, err = appendFrame(reducerIn, msg); err != nil {
				f.Fatal(err)
			}
		}
		for _, msg := range []*Message{
			{From: "reducer", To: "mapper-2", Kind: "mr.broadcast", Session: 3, Round: int32(r), Payload: []byte{4, 5}},
			{From: "reducer", To: "mapper-2", Kind: "mr.roster", Session: 3, Round: int32(r), Roster: roster},
		} {
			if mapperIn, err = appendFrame(mapperIn, msg); err != nil {
				f.Fatal(err)
			}
		}
	}
	for _, kind := range []string{"k1", "k2", "k3", "k4", "mr.broadcast", "mr.roster"} {
		if mapperIn, err = appendFrame(mapperIn, &Message{From: "reducer", To: "mapper-2", Kind: kind, Roster: shrunk}); err != nil {
			f.Fatal(err)
		}
	}
	large, err := appendFrame(nil, &Message{From: "a", To: "b", Kind: "k", Payload: make([]byte, maxPooledFrame)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(stream)
	f.Add(reducerIn)
	f.Add(mapperIn)
	f.Add(stream[:len(stream)-1]) // the peer died mid-frame
	f.Add(append(stream[:4:4], 0xff))
	f.Add(large)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})    // above maxFrameBytes
	f.Add([]byte{0x04, 0x00, 0x00, 0x00, 1}) // maxFrameBytes, then nothing
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, stream []byte) {
		br := bufio.NewReaderSize(bytes.NewReader(stream), readBufSize)
		var memo, refMemo frameMemo
		var ms0, ms1 runtime.MemStats
		budget := uint64(64 << 10) // names, errors, the reader's first fill
		runtime.ReadMemStats(&ms0)
		rest := stream
		for {
			msg, n, err := readFrame(br, &memo)
			// The reference: does rest start with a complete, well-formed frame?
			size := -1
			if len(rest) >= 4 {
				size = int(binary.BigEndian.Uint32(rest))
			}
			var ref Message
			whole := size >= 0 && size <= maxFrameBytes && len(rest)-4 >= size
			if whole {
				var err error
				ref, err = decodeFrame(rest[4:4+size], &refMemo)
				whole = err == nil
			}
			if err != nil {
				if whole {
					t.Fatalf("readFrame failed on a well-formed %d-byte frame: %v", size, err)
				}
				if size >= 0 && size <= maxFrameBytes {
					budget += maxPooledFrame + 3*uint64(len(rest)) // the failed body, grown as its bytes arrived
				}
				break
			}
			if !whole {
				t.Fatalf("readFrame returned a %d-byte frame the stream does not hold", n)
			}
			if n != size {
				t.Fatalf("readFrame read a %d-byte body from a %d-byte frame", n, size)
			}
			if msg.From != ref.From || msg.To != ref.To || msg.Kind != ref.Kind || msg.Session != ref.Session ||
				msg.Round != ref.Round || msg.Seq != ref.Seq || msg.Trace != ref.Trace || !msg.Roster.Equal(ref.Roster) ||
				!bytes.Equal(msg.Payload, ref.Payload) {
				t.Fatalf("frame read as %+v, the stream holds %+v", msg, ref)
			}
			budget += 512 + 3*uint64(size)
			msg.Release()
			rest = rest[4+size:]
		}
		runtime.ReadMemStats(&ms1)
		if got := ms1.TotalAlloc - ms0.TotalAlloc; got > budget {
			t.Fatalf("reading a %d-byte stream allocated %d bytes, over its budget of %d", len(stream), got, budget)
		}
	})
}

package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ppml-go/ppml/internal/telemetry"
)

// Errors specific to the TCP wire format.
var (
	// ErrFrameTooLarge is returned by Send when a message exceeds maxFrameBytes.
	ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")
	// ErrBadFrame indicates a frame that does not parse under the current
	// wire version.
	ErrBadFrame = errors.New("transport: malformed frame")
)

// maxFrameBytes bounds one framed message on the wire. Every frame carries a
// 4-byte length prefix, and the receiver rejects any advertised length above
// this bound before allocating, so a corrupt or malicious peer cannot make an
// endpoint allocate gigabytes from a 4-byte header. The largest legitimate
// message, a share or broadcast of one float per training row, is far below
// this.
const maxFrameBytes = 64 << 20

// frameVersion is the wire-format version stamped into every frame. A
// receiver rejects frames from any other version instead of misparsing them,
// so the header can grow fields in later versions without silent corruption.
// Version 2 added the roster section (elastic per-round participation sets);
// version 4 the trace context that keys per-node journal events to one
// cross-node timeline, carried as the trace id alone since 5; version 6 drops
// version 3's attempt word, as the roster alone tells two share derivations
// of a round apart.
const frameVersion = 6

// Fixed envelope layout after the 4-byte length prefix:
//
//	offset  size  field
//	0       1     version byte (frameVersion)
//	1       8     session (big endian)
//	9       4     round   (big endian, two's complement int32)
//	13      8     seq     (big endian)
//	21      8     trace id, high word (big endian)
//	29      8     trace id, low word (big endian)
//	37      2     roster word count, then 8 bytes (big endian) per word
//	..      2     len(from), then from bytes
//	..      2     len(to), then to bytes
//	..      2     len(kind), then kind bytes
//	..      —     payload (everything remaining)
const frameFixedHeader = 1 + 8 + 4 + 8 + 8 + 8

// maxNameBytes bounds the from/to/kind strings in a frame; endpoint names and
// message kinds are short protocol identifiers.
const maxNameBytes = 1 << 10

// maxRosterWords bounds the roster bitset in a frame at what its uint16 word
// count can say: 65,535 words cover four million mappers, far beyond any
// cohort the protocols run.
const maxRosterWords = math.MaxUint16

// TCP is a Network whose endpoints talk over loopback TCP sockets with
// length-prefixed, versioned binary frames. It runs the exact same protocols
// as InProc across real sockets, demonstrating that nothing in the system
// depends on shared memory. Every endpoint owns a listener on an ephemeral
// port; the network keeps the name → address book.
type TCP struct {
	mu        sync.Mutex
	addrs     map[string]string
	endpoints map[string]*tcpEndpoint
	closed    bool

	messages atomic.Int64
	bytes    atomic.Int64
	dropped  atomic.Int64
	tel      atomic.Pointer[netCounters]
}

var _ Network = (*TCP)(nil)

// NewTCP creates an empty TCP network on the loopback interface.
func NewTCP() *TCP {
	return &TCP{addrs: make(map[string]string), endpoints: make(map[string]*tcpEndpoint)}
}

// Endpoint implements Network. It binds a listener on 127.0.0.1 with an
// ephemeral port and starts its accept loop.
func (n *TCP) Endpoint(name string) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.addrs[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateEndpoint, name)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("transport tcp listen: %w", err)
	}
	ep := &tcpEndpoint{
		name:  name,
		net:   n,
		ln:    ln,
		inbox: make(chan Message, inboxSize),
		done:  make(chan struct{}),
		conns: make(map[string]*tcpConn),
	}
	n.addrs[name] = ln.Addr().String()
	n.endpoints[name] = ep
	go ep.acceptLoop()
	return ep, nil
}

// Stats implements Network.
func (n *TCP) Stats() Stats {
	return Stats{Messages: n.messages.Load(), Bytes: n.bytes.Load(), StaleDropped: n.dropped.Load()}
}

// SetTelemetry attaches a metrics registry: sends, received frames, frame-
// pool hit rate, dial/send/close errors and stale drops are mirrored into
// labeled counters (net="tcp"). Safe to call concurrently with live
// traffic; a nil registry detaches.
func (n *TCP) SetTelemetry(r *telemetry.Registry) {
	n.tel.Store(newNetCounters(r, "tcp"))
}

// Close implements Network. It closes every endpoint and reports the first
// failure (closes continue past an error so no endpoint leaks its listener).
func (n *TCP) Close() error {
	n.mu.Lock()
	eps := make([]*tcpEndpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.closed = true
	n.mu.Unlock()
	var firstErr error
	for _, ep := range eps {
		if err := ep.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (n *TCP) addressOf(name string) (string, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return "", ErrClosed
	}
	addr, ok := n.addrs[name]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownEndpoint, name)
	}
	return addr, nil
}

type tcpConn struct {
	mu   sync.Mutex
	conn net.Conn
	// iov holds the header and payload of the frame being written, and bufs
	// is the writev's view of it; both are Send's under mu. Held here, the
	// view costs no allocation per frame.
	iov  [2][]byte
	bufs net.Buffers
}

type tcpEndpoint struct {
	name  string
	net   *TCP
	ln    net.Listener
	inbox chan Message
	seq   atomic.Uint64
	dmx   demux

	closeOnce sync.Once
	done      chan struct{}

	connMu sync.Mutex
	conns  map[string]*tcpConn // outbound, keyed by destination name
}

func (e *tcpEndpoint) Name() string { return e.name }

func (e *tcpEndpoint) acceptLoop() {
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go e.readLoop(conn)
	}
}

// framePool recycles the buffers Send builds frame headers in: with one frame
// per protocol message every round, per-frame allocations dominated the wire
// path's garbage. Buffers above maxPooledFrame are not returned, so the pool
// never pins pathological allocations. The pool has no New function on
// purpose: a nil Get is how getFrameBuf distinguishes a pool hit from a miss
// for the telemetry hit-rate counters.
var framePool sync.Pool

// maxPooledFrame is the largest buffer either pool keeps. A frame may
// approach the 64 MiB bound; a body above this one is read into a slice of
// its own (readLarge) and left to the collector.
const maxPooledFrame = 1 << maxBodyShift

func getFrameBuf(t *netCounters) *[]byte {
	if bp, ok := framePool.Get().(*[]byte); ok {
		t.poolGet(true)
		return bp
	}
	t.poolGet(false)
	b := make([]byte, 0, 4096)
	return &b
}

func putFrameBuf(bp *[]byte, b []byte) {
	if cap(b) > maxPooledFrame {
		return
	}
	*bp = b[:0]
	framePool.Put(bp)
}

// bodyPools recycle received frame bodies, one pool per power-of-two
// capacity from 512 B to maxPooledFrame: rounding up lets a round's
// broadcast and share frames, of slightly different lengths, reuse each
// other's buffers. A body goes back only through Message.Release, which the
// round engine calls on every frame it has finished reading. The seed and
// mask frames of securesum are never released, so key and mask material
// never enters a pool.
var bodyPools [maxBodyShift - minBodyShift + 1]sync.Pool

const (
	minBodyShift = 9
	maxBodyShift = 20
)

// bodyClass is the index in bodyPools of the smallest class that holds n
// bytes, for 0 ≤ n ≤ maxPooledFrame.
func bodyClass(n int) int {
	return max(bits.Len(uint(max(n, 1)-1)), minBodyShift) - minBodyShift
}

// getBody returns a pooled buffer of at least n ≤ maxPooledFrame bytes, its
// length its class's capacity.
func getBody(n int) *[]byte {
	c := bodyClass(n)
	if bp, ok := bodyPools[c].Get().(*[]byte); ok {
		return bp
	}
	b := make([]byte, 1<<(c+minBodyShift))
	return &b
}

// Release hands a received frame body back to the pool it came from and
// clears the message's payload; a second call does nothing. A message must
// not be read after its Release, and no copy of it either: the next frame
// of the class overwrites the bytes. In-process messages carry no pooled
// body, so for them it is a no-op.
func (m *Message) Release() {
	if m.body == nil {
		return
	}
	bodyPools[bodyClass(cap(*m.body))].Put(m.body)
	m.body, m.Payload = nil, nil
}

// readBufSize is the buffered reader of one inbound connection: a round's
// frames are small, so their length prefix and body come in one read.
const readBufSize = 4096

func (e *tcpEndpoint) readLoop(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, readBufSize)
	var memo frameMemo
	for {
		msg, n, err := readFrame(br, &memo)
		if err != nil {
			// The peer closed or died mid-frame, or sent an oversized,
			// wrong-version or malformed frame: a hostile or corrupt stream.
			return
		}
		tel := e.net.tel.Load()
		tel.frameRecv(4 + n)
		tel.recved(len(msg.Payload))
		select {
		case e.inbox <- msg:
		case <-e.done:
			return
		}
	}
}

// readFrame reads one length-prefixed frame from br and decodes it, and
// reports the body's length. A body of at most maxPooledFrame bytes comes
// from bodyPools and is the message's until its Release; a larger one grows
// as its bytes arrive (readLarge). An advertised length above maxFrameBytes
// fails before anything is allocated. The caller ends the connection on any
// error, and a body whose read or decode failed never goes back to a pool.
func readFrame(br *bufio.Reader, memo *frameMemo) (Message, int, error) {
	prefix, err := br.Peek(4)
	if err != nil {
		return Message{}, 0, err
	}
	n := int(binary.BigEndian.Uint32(prefix))
	if n > maxFrameBytes {
		return Message{}, 0, ErrFrameTooLarge
	}
	// Peek saw four bytes, so the Discard cannot fail.
	_, _ = br.Discard(4)
	var bp *[]byte
	var body []byte
	if n <= maxPooledFrame {
		bp = getBody(n)
		body = (*bp)[:n]
		_, err = io.ReadFull(br, body)
	} else {
		body, err = readLarge(br, n)
	}
	if err != nil {
		return Message{}, 0, err
	}
	// decodeFrame aliases the payload into the body, which sits in the inbox
	// or the reorder buffer for as long as the message does.
	msg, err := decodeFrame(body, memo)
	if err != nil {
		return Message{}, 0, err
	}
	msg.body = bp
	return msg, n, nil
}

// readLarge reads an n-byte body above maxPooledFrame, doubling its buffer
// as the bytes arrive: a peer that advertises a large frame has to send it
// before the endpoint holds that much memory.
func readLarge(br *bufio.Reader, n int) ([]byte, error) {
	body := make([]byte, maxPooledFrame)
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, err
	}
	for len(body) < n {
		next := make([]byte, min(2*len(body), n))
		copy(next, body)
		if _, err := io.ReadFull(br, next[len(body):]); err != nil {
			return nil, err
		}
		body = next
	}
	return body, nil
}

// appendFrame appends msg to dst as one whole frame: its header
// (appendFrameHeader), then its payload. These are the bytes Send puts on the
// wire, as two buffers of one writev. Each frame is self-contained, so a
// dropped connection can never leave the peer's stream in an undecodable
// state.
func appendFrame(dst []byte, msg *Message) ([]byte, error) {
	b, err := appendFrameHeader(dst, msg)
	if err != nil {
		return nil, err
	}
	return append(b, msg.Payload...), nil
}

// appendFrameHeader appends everything of msg's frame but the payload: a
// 4-byte big-endian length prefix that counts the payload, the fixed envelope
// (version, session, round, seq, trace), the roster section and the three
// length-prefixed strings.
func appendFrameHeader(dst []byte, msg *Message) ([]byte, error) {
	for _, s := range []string{msg.From, msg.To, msg.Kind} {
		if len(s) > maxNameBytes {
			return nil, fmt.Errorf("%w: name of %d bytes", ErrBadFrame, len(s))
		}
	}
	if len(msg.Roster) > maxRosterWords {
		return nil, fmt.Errorf("%w: roster of %d words", ErrBadFrame, len(msg.Roster))
	}
	n := frameFixedHeader + 2 + 8*len(msg.Roster) + 3*2 + len(msg.From) + len(msg.To) + len(msg.Kind) + len(msg.Payload)
	if n > maxFrameBytes {
		return nil, fmt.Errorf("%w: %d > %d bytes", ErrFrameTooLarge, n, maxFrameBytes)
	}
	b := binary.BigEndian.AppendUint32(dst, uint32(n))
	b = append(b, frameVersion)
	b = binary.BigEndian.AppendUint64(b, msg.Session)
	b = binary.BigEndian.AppendUint32(b, uint32(msg.Round))
	b = binary.BigEndian.AppendUint64(b, msg.Seq)
	b = binary.BigEndian.AppendUint64(b, msg.Trace.Hi)
	b = binary.BigEndian.AppendUint64(b, msg.Trace.Lo)
	b = binary.BigEndian.AppendUint16(b, uint16(len(msg.Roster)))
	for _, w := range msg.Roster {
		b = binary.BigEndian.AppendUint64(b, w)
	}
	for _, s := range []string{msg.From, msg.To, msg.Kind} {
		b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
		b = append(b, s...)
	}
	return b, nil
}

// nameWays is how many recent strings a frameMemo keeps per name position. A
// connection alternates between a few kinds — ready and share at the Reducer,
// broadcast and roster at a mapper — and each should find its string there.
const nameWays = 4

// frameMemo is one inbound connection's decode memo. A connection carries one
// sender's traffic, so a frame's From, To and Kind are nearly always among the
// last few the connection decoded, and its roster the last roster it decoded:
// decodeFrame then hands out the memo's strings and roster instead of
// allocating them again.
type frameMemo struct {
	names [3][nameWays]string // per position (From, To, Kind), replaced oldest first
	next  [3]int              // the way the next miss at each position replaces
	// roster is the last roster decoded. It has been handed out, so it is
	// never written: a changed roster gets a new slice.
	roster Roster
}

// name returns the string of b at name position pos: a remembered one equal to
// it, or a copy, which replaces the position's oldest.
func (f *frameMemo) name(pos int, b []byte) string {
	for _, s := range f.names[pos] {
		if string(b) == s {
			return s
		}
	}
	s := string(b)
	f.names[pos][f.next[pos]] = s
	f.next[pos] = (f.next[pos] + 1) % nameWays
	return s
}

// rosterOf returns the roster of the words big-endian words in b: the last
// one decoded if every word equals it, else a new slice, then remembered.
func (f *frameMemo) rosterOf(b []byte, words int) Roster {
	if len(f.roster) == words {
		i := 0
		for i < words && f.roster[i] == binary.BigEndian.Uint64(b[8*i:]) {
			i++
		}
		if i == words {
			return f.roster
		}
	}
	r := make(Roster, words)
	for i := range r {
		r[i] = binary.BigEndian.Uint64(b[8*i:])
	}
	f.roster = r
	return r
}

// decodeFrame parses one frame body (the bytes after the length prefix). The
// payload aliases body; the names and the roster come from memo where it
// holds equal ones, and are recorded there where it does not.
func decodeFrame(body []byte, memo *frameMemo) (Message, error) {
	if len(body) < frameFixedHeader {
		return Message{}, fmt.Errorf("%w: %d-byte frame", ErrBadFrame, len(body))
	}
	if body[0] != frameVersion {
		return Message{}, fmt.Errorf("%w: version %d, want %d", ErrBadFrame, body[0], frameVersion)
	}
	var msg Message
	msg.Session = binary.BigEndian.Uint64(body[1:])
	msg.Round = int32(binary.BigEndian.Uint32(body[9:]))
	msg.Seq = binary.BigEndian.Uint64(body[13:])
	msg.Trace.Hi = binary.BigEndian.Uint64(body[21:])
	msg.Trace.Lo = binary.BigEndian.Uint64(body[29:])
	rest := body[frameFixedHeader:]
	if len(rest) < 2 {
		return Message{}, fmt.Errorf("%w: truncated roster length", ErrBadFrame)
	}
	words := int(binary.BigEndian.Uint16(rest))
	rest = rest[2:]
	if len(rest) < 8*words {
		return Message{}, fmt.Errorf("%w: truncated roster", ErrBadFrame)
	}
	if words > 0 {
		msg.Roster = memo.rosterOf(rest, words)
		rest = rest[8*words:]
	}
	for i, dst := range []*string{&msg.From, &msg.To, &msg.Kind} {
		if len(rest) < 2 {
			return Message{}, fmt.Errorf("%w: truncated name length", ErrBadFrame)
		}
		l := int(binary.BigEndian.Uint16(rest))
		rest = rest[2:]
		if l > maxNameBytes {
			return Message{}, fmt.Errorf("%w: name of %d bytes", ErrBadFrame, l)
		}
		if len(rest) < l {
			return Message{}, fmt.Errorf("%w: truncated name", ErrBadFrame)
		}
		*dst = memo.name(i, rest[:l])
		rest = rest[l:]
	}
	if len(rest) > 0 {
		msg.Payload = rest
	}
	return msg, nil
}

func (e *tcpEndpoint) Send(ctx context.Context, to, kind string, hdr Header, payload []byte) error {
	select {
	case <-e.done:
		return ErrClosed
	default:
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	tel := e.net.tel.Load()
	c, err := e.connTo(ctx, to)
	if err != nil {
		return err
	}
	msg := Message{
		From: e.name, To: to, Kind: kind,
		Session: hdr.Session, Round: hdr.Round, Seq: e.seq.Add(1),
		Roster:  hdr.Roster,
		Trace:   hdr.Trace,
		Payload: payload,
	}
	// The header is built in a pooled buffer and written with the caller's
	// payload in one writev, so the payload is never copied. WriteTo clears
	// the view as it consumes it: once the frame is written, the connection
	// holds neither buffer.
	bp := getFrameBuf(tel)
	head, err := appendFrameHeader((*bp)[:0], &msg)
	if err != nil {
		putFrameBuf(bp, *bp)
		return fmt.Errorf("transport tcp send to %q: %w", to, err)
	}
	c.mu.Lock()
	if dl, ok := ctx.Deadline(); ok {
		// A connection that rejects deadlines fails the write below with
		// the real error. (net.Conn is outside the audited API surface, so
		// this deliberate discard needs no //ppml:err-ok.)
		_ = c.conn.SetWriteDeadline(dl)
	}
	c.iov = [2][]byte{head, payload}
	c.bufs = c.iov[:]
	_, err = c.bufs.WriteTo(c.conn)
	if _, ok := ctx.Deadline(); ok {
		// Clearing a deadline on a dying connection is best-effort.
		_ = c.conn.SetWriteDeadline(time.Time{})
	}
	c.mu.Unlock()
	putFrameBuf(bp, head)
	if err != nil {
		tel.sendError()
		// Drop the cached connection so the next send re-dials.
		e.connMu.Lock()
		if e.conns[to] == c {
			delete(e.conns, to)
		}
		e.connMu.Unlock()
		c.conn.Close()
		return fmt.Errorf("transport tcp send to %q: %w", to, err)
	}
	e.net.messages.Add(1)
	e.net.bytes.Add(int64(len(payload)))
	tel.sent(len(payload))
	tel.frameSent(len(head) + len(payload))
	tel.journalSend(e.name, to, kind, hdr.Trace, hdr.Round, len(payload))
	return nil
}

func (e *tcpEndpoint) connTo(ctx context.Context, to string) (*tcpConn, error) {
	e.connMu.Lock()
	defer e.connMu.Unlock()
	if c, ok := e.conns[to]; ok {
		return c, nil
	}
	addr, err := e.net.addressOf(to)
	if err != nil {
		return nil, err
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		e.net.tel.Load().dialError()
		return nil, fmt.Errorf("transport tcp dial %q: %w", to, err)
	}
	c := &tcpConn{conn: conn}
	e.conns[to] = c
	return c, nil
}

func (e *tcpEndpoint) Recv(ctx context.Context) (Message, error) {
	return e.RecvMatch(ctx, nil)
}

func (e *tcpEndpoint) RecvMatch(ctx context.Context, filter Filter) (Message, error) {
	msg, err := e.dmx.recvMatch(ctx, filter, e.inbox, e.done, &e.net.dropped, e.net.tel.Load().staleCounter())
	if err == nil {
		e.net.tel.Load().journalRecv(e.name, msg.From, msg.Kind, msg.Trace, msg.Round, len(msg.Payload))
	}
	return msg, err
}

// Evict implements Evictor: discards stashed messages the filter Drops.
func (e *tcpEndpoint) Evict(f Filter) int {
	return e.dmx.evict(f, &e.net.dropped, e.net.tel.Load().staleCounter())
}

func (e *tcpEndpoint) Close() error {
	var err error
	e.closeOnce.Do(func() {
		close(e.done)
		err = e.ln.Close()
		if err != nil {
			e.net.tel.Load().closeError()
		}
		e.connMu.Lock()
		for _, c := range e.conns {
			c.conn.Close()
		}
		e.connMu.Unlock()
		e.net.mu.Lock()
		delete(e.net.endpoints, e.name)
		delete(e.net.addrs, e.name)
		e.net.mu.Unlock()
	})
	return err
}

package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
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

// framePool recycles frame encode buffers across sends: with one frame per
// protocol message every round, per-frame allocations dominated the wire
// path's garbage. Buffers above maxPooledFrame (a frame may approach the
// 64 MiB bound) are not returned, so the pool never pins pathological
// allocations. The pool has no New function on purpose: a
// nil Get is how getFrameBuf distinguishes a pool hit from a miss for the
// telemetry hit-rate counters. The receive side takes no buffer from it: a
// frame body is read into a slice of its own, which the message keeps.
var framePool sync.Pool

const maxPooledFrame = 1 << 20

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

func (e *tcpEndpoint) readLoop(conn net.Conn) {
	defer conn.Close()
	var hdr [4]byte
	var names frameNames
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return // peer closed or died mid-header
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > maxFrameBytes {
			// An advertised length above the bound means a corrupt or hostile
			// stream; drop the connection before allocating anything.
			return
		}
		// The body is the message's own: decodeFrame aliases the payload into
		// it, and it sits in the inbox or the reorder buffer for as long as
		// the message does.
		body := make([]byte, n)
		if _, err := io.ReadFull(conn, body); err != nil {
			return // peer died mid-frame: discard the partial message
		}
		msg, err := decodeFrame(body, &names)
		if err != nil {
			return // wrong version or malformed header: hostile or corrupt stream
		}
		tel := e.net.tel.Load()
		tel.frameRecv(len(hdr) + int(n))
		tel.recved(len(msg.Payload))
		select {
		case e.inbox <- msg:
		case <-e.done:
			return
		}
	}
}

// appendFrame appends msg to dst behind a 4-byte big-endian length prefix as
// a binary frame: fixed envelope (version, session, round, seq), the roster
// section, the three length-prefixed strings, then the payload. Each frame is
// self-contained, so a dropped connection can never leave the peer's stream
// in an undecodable state. Send borrows dst from framePool, writes the frame,
// and returns it — the frame bytes are fully consumed by conn.Write before
// the buffer is recycled.
func appendFrame(dst []byte, msg *Message) ([]byte, error) {
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
	b = append(b, msg.Payload...)
	return b, nil
}

// frameNames holds the From, To and Kind strings of the last frame a
// connection decoded. A connection carries one sender's traffic, so a frame's
// names nearly always repeat the previous frame's, and decodeFrame then reuses
// the strings instead of allocating them again.
type frameNames [3]string

// decodeFrame parses one frame body (the bytes after the length prefix). The
// payload aliases body; a name equal to the one in names at its place is that
// string, and any other is copied out and recorded there.
func decodeFrame(body []byte, names *frameNames) (Message, error) {
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
		msg.Roster = make(Roster, words)
		for i := range msg.Roster {
			msg.Roster[i] = binary.BigEndian.Uint64(rest[8*i:])
		}
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
		if string(rest[:l]) != names[i] {
			names[i] = string(rest[:l])
		}
		*dst = names[i]
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
	bp := getFrameBuf(tel)
	frame, err := appendFrame((*bp)[:0], &msg)
	if err != nil {
		putFrameBuf(bp, *bp)
		return fmt.Errorf("transport tcp send to %q: %w", to, err)
	}
	c.mu.Lock()
	if dl, ok := ctx.Deadline(); ok {
		// A connection that rejects deadlines fails the Write below with
		// the real error. (net.Conn is outside the audited API surface, so
		// this deliberate discard needs no //ppml:err-ok.)
		_ = c.conn.SetWriteDeadline(dl)
	}
	_, err = c.conn.Write(frame)
	if _, ok := ctx.Deadline(); ok {
		// Clearing a deadline on a dying connection is best-effort.
		_ = c.conn.SetWriteDeadline(time.Time{})
	}
	c.mu.Unlock()
	putFrameBuf(bp, frame)
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
	tel.frameSent(len(frame))
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

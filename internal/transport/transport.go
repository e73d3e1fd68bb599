// Package transport is the message-passing layer connecting the simulated
// cluster nodes: Mappers, the Reducer, and the coordinator. Two
// implementations are provided behind one interface — an in-process network
// (channels) used by the default simulation and tests, and a TCP network
// (net + a versioned binary frame) that runs the same protocols across real
// sockets.
//
// Every message travels in a session-scoped, round-tagged envelope: the
// sender stamps a Header (job session id, protocol round, and in an elastic
// round the roster a share was derived over) and the transport adds a
// per-endpoint sequence number. Receivers demultiplex with RecvMatch, whose
// filter decides per message whether to deliver it, hold it for a later call
// (a fast peer's next-round traffic), or drop it as stale. This is what lets a
// long-lived multi-round protocol interleave phases safely instead of relying
// on arrival order.
//
// Every network keeps byte and message counters, which the benchmarks use to
// quantify the data-locality argument of Section I: the bytes a consensus
// round moves are a few vectors, not the training data.
package transport

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/ppml-go/ppml/internal/telemetry"
)

// Errors returned by networks and endpoints.
var (
	// ErrUnknownEndpoint indicates a send to a name never registered.
	ErrUnknownEndpoint = errors.New("transport: unknown endpoint")
	// ErrClosed indicates use of a closed endpoint or network.
	ErrClosed = errors.New("transport: closed")
	// ErrDuplicateEndpoint indicates a name registered twice.
	ErrDuplicateEndpoint = errors.New("transport: endpoint already exists")
)

// Header is the sender-stamped part of the message envelope: which job the
// message belongs to and which protocol round produced it. The zero value
// (session 0, round 0) is valid for traffic outside any session.
type Header struct {
	// Session identifies the job; RunDistributed allocates a fresh id per
	// job so concurrent jobs on one transport never cross-talk.
	Session uint64
	// Round is the protocol round (consensus iteration) of the message.
	Round int32
	// Roster, when non-nil, is the per-round participation set this message
	// declares (a roster broadcast) or was produced under (a share scoped to
	// that roster). Every re-declaration within a round is strictly smaller
	// than the last, so (Round, Roster) alone tells two share derivations of
	// one round apart. Nil means fixed membership — the strict protocol
	// where every mapper answers every round.
	Roster Roster
	// Trace is the distributed trace identity of the session, minted by the
	// reducer at session start and echoed by mappers on every reply, so
	// per-node journals merge into one cross-node timeline. Coordination
	// metadata, like Session/Round/Seq: 16 random bytes chosen by the
	// reducer, carrying nothing about any learner's data (DESIGN.md §16).
	Trace telemetry.TraceID
}

// Message is one datagram between named endpoints. Kind routes it within the
// receiving protocol (e.g. "mask", "share", "broadcast"); Session, Round and
// Seq are the envelope receivers demultiplex on. A receiver that is done
// with a message may Release it, which recycles the pooled buffer a TCP
// message's Payload aliases.
type Message struct {
	From string
	To   string
	Kind string
	// Session and Round are copied from the sender's Header.
	Session uint64
	Round   int32
	// Roster is the participation set copied from the sender's Header; nil
	// when the message carries none. A received roster is read-only: the TCP
	// transport hands the same slice to every frame of a connection that
	// carries the same roster.
	Roster Roster
	// Trace is the trace identity copied from the sender's Header.
	Trace telemetry.TraceID
	// Seq is a per-sender monotonic sequence number stamped by the
	// transport on Send; it breaks ties between same-round messages and
	// gives transcripts a total per-sender order.
	Seq     uint64
	Payload []byte

	// body is the pooled buffer a TCP frame was read into, which Payload
	// aliases; nil for in-process messages and after Release.
	body *[]byte
}

// Header reconstructs the sender-stamped envelope of the message.
func (m Message) Header() Header {
	return Header{Session: m.Session, Round: m.Round, Roster: m.Roster, Trace: m.Trace}
}

// Verdict is a Filter's decision for one inbound message.
type Verdict int

const (
	// Accept delivers the message to the caller.
	Accept Verdict = iota
	// Defer holds the message in the endpoint's reorder buffer: it is not
	// what this call waits for, but a later RecvMatch will want it (e.g. a
	// fast peer's next-round mask arriving before our broadcast).
	Defer
	// Drop discards the message and increments the network's StaleDropped
	// counter — for out-of-round leftovers no receiver will ever want.
	Drop
)

// Filter examines a message's envelope — (session, round, kind) — and decides
// its fate for one RecvMatch call. A nil Filter accepts every message.
type Filter func(Message) Verdict

// Endpoint is one party's connection to the network.
type Endpoint interface {
	// Name returns the endpoint's registered name.
	Name() string
	// Send delivers a message carrying hdr to the named peer, honouring
	// context cancellation. It must be safe for concurrent use.
	Send(ctx context.Context, to, kind string, hdr Header, payload []byte) error
	// Recv blocks for the next inbound message or context cancellation. It
	// drains the reorder buffer (in arrival order) before the live inbox.
	Recv(ctx context.Context) (Message, error)
	// RecvMatch blocks until a message the filter Accepts arrives (or the
	// context is cancelled). Messages the filter Defers are held, in
	// arrival order, in a per-endpoint reorder buffer that later calls
	// scan first; Dropped messages are discarded and counted in
	// Stats.StaleDropped.
	RecvMatch(ctx context.Context, filter Filter) (Message, error)
	// Close releases the endpoint; subsequent operations return ErrClosed.
	Close() error
}

// Stats are cumulative traffic counters for a network.
type Stats struct {
	Messages int64
	// Bytes counts payload bytes only, the protocol-relevant volume.
	Bytes int64
	// StaleDropped counts messages discarded by RecvMatch filters —
	// out-of-round arrivals no receiver wanted.
	StaleDropped int64
}

// Network creates endpoints and reports traffic statistics.
type Network interface {
	// Endpoint registers and returns a new named endpoint.
	Endpoint(name string) (Endpoint, error)
	// Stats returns a snapshot of the cumulative traffic counters.
	Stats() Stats
	// Close tears down the network and every endpoint.
	Close() error
}

// inboxSize bounds per-endpoint buffering. Protocol rounds deliver at most
// one message per peer per step, so this absorbs full rounds of clusters far
// larger than the simulations use without ever blocking a sender.
const inboxSize = 4096

// demux is the per-endpoint reorder buffer behind RecvMatch, shared by the
// in-process and TCP endpoints. Deferred messages are re-offered in arrival
// order to every subsequent receive before the live inbox is consulted.
type demux struct {
	mu      sync.Mutex
	pending []Message
}

// recvMatch implements the RecvMatch contract over an inbox channel and a
// close signal. dropped counts filter-discarded messages network-wide;
// stale mirrors the same count into the telemetry registry (nil when none
// is attached).
func (d *demux) recvMatch(ctx context.Context, f Filter, inbox <-chan Message, done <-chan struct{}, dropped *atomic.Int64, stale *telemetry.Counter) (Message, error) {
	// Pass 1: the reorder buffer, in arrival order.
	d.mu.Lock()
	for i := 0; i < len(d.pending); i++ {
		switch verdict(f, d.pending[i]) {
		case Accept:
			msg := d.pending[i]
			d.pending = append(d.pending[:i], d.pending[i+1:]...)
			d.mu.Unlock()
			return msg, nil
		case Drop:
			d.pending = append(d.pending[:i], d.pending[i+1:]...)
			dropped.Add(1)
			stale.Inc()
			i--
		}
	}
	d.mu.Unlock()
	// Pass 2: the live inbox.
	for {
		var msg Message
		select {
		case msg = <-inbox:
		default:
			select {
			case msg = <-inbox:
			case <-ctx.Done():
				return Message{}, ctx.Err()
			case <-done:
				return Message{}, ErrClosed
			}
		}
		switch verdict(f, msg) {
		case Accept:
			return msg, nil
		case Defer:
			d.mu.Lock()
			d.pending = append(d.pending, msg)
			d.mu.Unlock()
		case Drop:
			dropped.Add(1)
			stale.Inc()
		}
	}
}

// evict sweeps the reorder buffer without receiving: every pending message
// the filter Drops is discarded and counted as stale, everything else stays.
// Accept verdicts keep the message too — eviction never delivers. Returns the
// number of messages evicted.
func (d *demux) evict(f Filter, dropped *atomic.Int64, stale *telemetry.Counter) int {
	if f == nil {
		return 0
	}
	n := 0
	d.mu.Lock()
	kept := d.pending[:0]
	for _, msg := range d.pending {
		if f(msg) == Drop {
			dropped.Add(1)
			stale.Inc()
			n++
			continue
		}
		kept = append(kept, msg)
	}
	for i := len(kept); i < len(d.pending); i++ {
		d.pending[i] = Message{} // release payloads of evicted tail slots
	}
	d.pending = kept
	d.mu.Unlock()
	return n
}

// Evictor is implemented by endpoints whose RecvMatch reorder buffer can be
// swept without receiving. A long-lived receiver advancing to a new round
// uses it to discard stale-round leftovers that no future filter will ever
// scan (they would otherwise sit in the buffer until the endpoint closes):
// Evict applies the filter to every held message, discards the ones it Drops
// (counted in Stats.StaleDropped), and keeps the rest. It never delivers.
type Evictor interface {
	Evict(f Filter) int
}

func verdict(f Filter, m Message) Verdict {
	if f == nil {
		return Accept
	}
	return f(m)
}

// InProc is the in-process Network backed by Go channels.
type InProc struct {
	mu        sync.Mutex
	endpoints map[string]*inprocEndpoint
	closed    bool

	messages atomic.Int64
	bytes    atomic.Int64
	dropped  atomic.Int64
	tel      atomic.Pointer[netCounters]
}

var _ Network = (*InProc)(nil)

// NewInProc creates an empty in-process network.
func NewInProc() *InProc {
	return &InProc{endpoints: make(map[string]*inprocEndpoint)}
}

// Endpoint implements Network.
func (n *InProc) Endpoint(name string) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.endpoints[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateEndpoint, name)
	}
	ep := &inprocEndpoint{
		name:  name,
		net:   n,
		inbox: make(chan Message, inboxSize),
		done:  make(chan struct{}),
	}
	n.endpoints[name] = ep
	return ep, nil
}

// Stats implements Network.
func (n *InProc) Stats() Stats {
	return Stats{Messages: n.messages.Load(), Bytes: n.bytes.Load(), StaleDropped: n.dropped.Load()}
}

// SetTelemetry attaches a metrics registry: from this point every send and
// stale drop is mirrored into labeled counters (net="inproc"). Safe to call
// concurrently with live traffic; a nil registry detaches.
func (n *InProc) SetTelemetry(r *telemetry.Registry) {
	n.tel.Store(newNetCounters(r, "inproc"))
}

// Close implements Network.
func (n *InProc) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil
	}
	n.closed = true
	for _, ep := range n.endpoints {
		ep.closeLocked()
	}
	return nil
}

func (n *InProc) lookup(name string) (*inprocEndpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	ep, ok := n.endpoints[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownEndpoint, name)
	}
	return ep, nil
}

type inprocEndpoint struct {
	name  string
	net   *InProc
	inbox chan Message
	seq   atomic.Uint64
	dmx   demux

	// roster is the last roster this endpoint delivered, under rosterMu. It
	// has been handed out, so it is never written: a changed roster gets a
	// new clone (frameMemo's rule on TCP).
	rosterMu sync.Mutex
	roster   Roster

	closeOnce sync.Once
	done      chan struct{}
}

func (e *inprocEndpoint) Name() string { return e.name }

func (e *inprocEndpoint) Send(ctx context.Context, to, kind string, hdr Header, payload []byte) error {
	select {
	case <-e.done:
		return ErrClosed
	default:
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	dst, err := e.net.lookup(to)
	if err != nil {
		return err
	}
	msg := Message{
		From: e.name, To: to, Kind: kind,
		Session: hdr.Session, Round: hdr.Round, Roster: e.deliver(hdr.Roster),
		Trace:   hdr.Trace,
		Seq:     e.seq.Add(1),
		Payload: payload,
	}
	select {
	case dst.inbox <- msg:
		e.net.messages.Add(1)
		e.net.bytes.Add(int64(len(payload)))
		tel := e.net.tel.Load()
		tel.sent(len(payload))
		tel.journalSend(e.name, to, kind, hdr.Trace, hdr.Round, len(payload))
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-dst.done:
		return fmt.Errorf("send to %q: %w", to, ErrClosed)
	}
}

// deliver returns the roster a message carries for r: nil for an empty r, the
// last one delivered when r equals it, else a clone of r, remembered. A
// sender reusing its roster buffer for the next declaration so never mutates
// a message already in flight.
func (e *inprocEndpoint) deliver(r Roster) Roster {
	if len(r) == 0 {
		return nil
	}
	e.rosterMu.Lock()
	defer e.rosterMu.Unlock()
	if !slices.Equal(e.roster, r) {
		e.roster = r.Clone()
	}
	return e.roster
}

func (e *inprocEndpoint) Recv(ctx context.Context) (Message, error) {
	return e.RecvMatch(ctx, nil)
}

func (e *inprocEndpoint) RecvMatch(ctx context.Context, filter Filter) (Message, error) {
	msg, err := e.dmx.recvMatch(ctx, filter, e.inbox, e.done, &e.net.dropped, e.net.tel.Load().staleCounter())
	if err == nil {
		e.net.tel.Load().journalRecv(e.name, msg.From, msg.Kind, msg.Trace, msg.Round, len(msg.Payload))
	}
	return msg, err
}

// Evict implements Evictor over the endpoint's reorder buffer.
func (e *inprocEndpoint) Evict(f Filter) int {
	return e.dmx.evict(f, &e.net.dropped, e.net.tel.Load().staleCounter())
}

func (e *inprocEndpoint) Close() error {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	e.closeLocked()
	delete(e.net.endpoints, e.name)
	return nil
}

func (e *inprocEndpoint) closeLocked() {
	e.closeOnce.Do(func() { close(e.done) })
}

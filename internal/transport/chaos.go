package transport

import (
	"context"
	"sync"
	"time"

	"github.com/ppml-go/ppml/internal/telemetry"
)

// Chaos wraps a Network with deterministic fault injection for the elastic-
// roster tests: per-endpoint send delay (a straggler), a kind-scoped outbound
// drop (a crash between protocol phases), or a drop both ways (a dead node).
// Faults are keyed by endpoint name and can be installed or healed at any
// time, including while a job is running. AtRound keys that moment to the
// round stamp on the wire rather than to a clock, so a kill or a heal lands
// in the same round on every run, however fast the machine is.
//
// A dropped message is a silent success: Send returns nil, the bytes never
// arrive, and the network's traffic counters do not move. That models a
// crashed process or a cut cable, where the sender has no way to know the
// peer is gone until a timeout fires — the failure mode the straggler
// deadline in the mapreduce driver exists to absorb.
type Chaos struct {
	inner Network

	mu       sync.Mutex
	rules    map[string]*chaosRule
	triggers []*roundTrigger // append-only: a sender reads a snapshot without the lock
}

// roundTrigger is one AtRound registration.
type roundTrigger struct {
	round int32
	once  sync.Once
	f     func()
}

type chaosRule struct {
	delay     time.Duration   // added before each outbound send completes
	dropOut   bool            // sends FROM this endpoint vanish
	dropIn    bool            // sends TO this endpoint vanish
	dropKinds map[string]bool // sends FROM this endpoint of these kinds vanish

	// Two-point jitter: each send draws tail with probability prob, base
	// otherwise, from the rule's seeded stream. Overrides delay when set.
	jitterBase time.Duration
	jitterTail time.Duration
	jitterProb float64
	jitterRng  *jitterRNG
}

// jitterRNG is a seeded splitmix64 stream for the fault schedule. Chaos is a
// test harness: its randomness decides which sends run late, never anything a
// mask, key, or payload depends on, so a tiny deterministic generator beats
// pulling a general-purpose PRNG into a privacy-critical package (where the
// randsource analyzer bans math/rand outright).
type jitterRNG struct{ state uint64 }

func (r *jitterRNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1) from the top 53 bits.
func (r *jitterRNG) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// NewChaos wraps an existing network. Endpoints must be created through the
// wrapper for faults to apply to their sends.
func NewChaos(inner Network) *Chaos {
	return &Chaos{inner: inner, rules: make(map[string]*chaosRule)}
}

var _ Network = (*Chaos)(nil)

// Endpoint implements Network.
func (c *Chaos) Endpoint(name string) (Endpoint, error) {
	ep, err := c.inner.Endpoint(name)
	if err != nil {
		return nil, err
	}
	return &chaosEndpoint{inner: ep, net: c}, nil
}

// Stats implements Network, reporting the inner network's counters (dropped
// messages never reached it, so they are absent by construction).
func (c *Chaos) Stats() Stats { return c.inner.Stats() }

// Close implements Network.
func (c *Chaos) Close() error { return c.inner.Close() }

// SetTelemetry forwards to the inner network when it exposes the registry
// hook (InProc and TCP both do).
func (c *Chaos) SetTelemetry(r *telemetry.Registry) {
	if t, ok := c.inner.(interface{ SetTelemetry(*telemetry.Registry) }); ok {
		t.SetTelemetry(r)
	}
}

// Delay makes every send from the named endpoint take at least d longer — an
// injected straggler. A zero d removes the delay without touching drops.
func (c *Chaos) Delay(name string, d time.Duration) {
	c.mu.Lock()
	c.rule(name).delay = d
	c.mu.Unlock()
}

// Jitter makes every send from the named endpoint draw a two-point latency —
// tail with probability p, base otherwise — from a stream seeded with seed: a
// reproducible stand-in for heavy-tailed network latency. This is the fault
// elastic rounds exist for: a synchronous round stalls on every tail draw,
// while an elastic round demotes the straggler for the round and folds the
// others. Jitter overrides any constant Delay on the endpoint; a
// zero tail removes it.
func (c *Chaos) Jitter(name string, base, tail time.Duration, p float64, seed int64) {
	c.mu.Lock()
	r := c.rule(name)
	r.jitterBase, r.jitterTail, r.jitterProb = base, tail, p
	if tail > 0 {
		r.jitterRng = &jitterRNG{state: uint64(seed)}
	} else {
		r.jitterRng = nil
	}
	c.mu.Unlock()
}

// KillOutboundKind silently drops the named endpoint's sends of one message
// kind while everything else still flows. This is the scalpel for protocol-
// phase faults — e.g. a mapper whose readiness declarations arrive but whose
// shares never do, which the Reducer must re-roster around.
func (c *Chaos) KillOutboundKind(name, kind string) {
	c.mu.Lock()
	r := c.rule(name)
	if r.dropKinds == nil {
		r.dropKinds = make(map[string]bool)
	}
	r.dropKinds[kind] = true
	c.mu.Unlock()
}

// Kill cuts the named endpoint off in both directions: it appears dead to
// every peer, and every peer appears dead to it.
func (c *Chaos) Kill(name string) {
	c.mu.Lock()
	r := c.rule(name)
	r.dropOut, r.dropIn = true, true
	c.mu.Unlock()
}

// Heal removes every fault on the named endpoint — the node rejoins the
// network with no residual delay or partition.
func (c *Chaos) Heal(name string) {
	c.mu.Lock()
	delete(c.rules, name)
	c.mu.Unlock()
}

// AtRound runs f once, from the first Send stamped with a round ≥ r, before
// that send's faults are looked up: a Kill that f installs drops that very
// send. A sender that crosses r while f runs waits for it to return, so no
// send of round ≥ r misses what f installed, and f must not itself send
// through c. A round never reached never fires f.
func (c *Chaos) AtRound(r int32, f func()) {
	c.mu.Lock()
	c.triggers = append(c.triggers, &roundTrigger{round: r, f: f})
	c.mu.Unlock()
}

// fire runs the triggers a send stamped round r has crossed.
func (c *Chaos) fire(r int32) {
	c.mu.Lock()
	triggers := c.triggers
	c.mu.Unlock()
	for _, t := range triggers {
		if r >= t.round {
			t.once.Do(t.f)
		}
	}
}

// rule returns the (possibly new) rule for name; callers hold c.mu.
func (c *Chaos) rule(name string) *chaosRule {
	r, ok := c.rules[name]
	if !ok {
		r = &chaosRule{}
		c.rules[name] = r
	}
	return r
}

// faultsFor snapshots the faults applying to one send: the sender's delay and
// outbound (possibly kind-scoped) drop, plus the receiver's inbound drop.
func (c *Chaos) faultsFor(from, to, kind string) (delay time.Duration, drop bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.rules[from]; ok {
		delay = r.delay
		if r.jitterRng != nil {
			delay = r.jitterBase
			if r.jitterRng.float64() < r.jitterProb {
				delay = r.jitterTail
			}
		}
		drop = r.dropOut || r.dropKinds[kind]
	}
	if r, ok := c.rules[to]; ok {
		drop = drop || r.dropIn
	}
	return delay, drop
}

type chaosEndpoint struct {
	inner Endpoint
	net   *Chaos
}

func (e *chaosEndpoint) Name() string { return e.inner.Name() }

func (e *chaosEndpoint) Send(ctx context.Context, to, kind string, hdr Header, payload []byte) error {
	e.net.fire(hdr.Round)
	delay, drop := e.net.faultsFor(e.inner.Name(), to, kind)
	if drop {
		return nil // the void accepts all messages
	}
	if delay > 0 {
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	//ppml:flow-ok fault wrapper forwards the caller's already-audited bytes unchanged
	return e.inner.Send(ctx, to, kind, hdr, payload)
}

func (e *chaosEndpoint) Recv(ctx context.Context) (Message, error) {
	return e.inner.Recv(ctx)
}

func (e *chaosEndpoint) RecvMatch(ctx context.Context, filter Filter) (Message, error) {
	return e.inner.RecvMatch(ctx, filter)
}

// Evict forwards to the inner endpoint's reorder buffer when it has one.
func (e *chaosEndpoint) Evict(f Filter) int {
	if ev, ok := e.inner.(Evictor); ok {
		return ev.Evict(f)
	}
	return 0
}

func (e *chaosEndpoint) Close() error { return e.inner.Close() }

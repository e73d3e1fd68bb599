package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ppml-go/ppml/internal/mapreduce"
	"github.com/ppml-go/ppml/internal/securesum"
	"github.com/ppml-go/ppml/internal/transport"
)

// tap wraps a transport.Network (the transport.Chaos pattern) and spans every
// Send, Recv and RecvMatch of a real training run. A span holds the envelope
// — endpoint, peer, kind, round, (From, Seq) — a payload length and two
// timestamps; payload bytes are never read. Spans stay in memory and are
// summarised after the run.
type tap struct {
	inner transport.Network
	epoch time.Time

	mu  sync.Mutex
	eps []*tapEndpoint
}

func newTap(inner transport.Network) *tap {
	return &tap{inner: inner, epoch: time.Now()}
}

var _ transport.Network = (*tap)(nil)

// span is one transport call. For a send, peer is the destination and seq
// the sender's own call counter; for a receive, peer and seq come from the
// delivered message, so (peer, seq) of a receive names the send it matches.
type span struct {
	send       bool
	ep, peer   string
	kind       string
	round      int32
	seq        uint64
	n          int
	start, end time.Duration // since tap.epoch
}

func (s span) dur() time.Duration { return s.end - s.start }

func (t *tap) Endpoint(name string) (transport.Endpoint, error) {
	ep, err := t.inner.Endpoint(name)
	if err != nil {
		return nil, err
	}
	te := &tapEndpoint{inner: ep, net: t}
	t.mu.Lock()
	t.eps = append(t.eps, te)
	t.mu.Unlock()
	return te, nil
}

func (t *tap) Stats() transport.Stats { return t.inner.Stats() }
func (t *tap) Close() error           { return t.inner.Close() }

// spans returns every recorded span. Call it after the run has returned.
func (t *tap) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var all []span
	for _, ep := range t.eps {
		ep.mu.Lock()
		all = append(all, ep.rec...)
		ep.mu.Unlock()
	}
	return all
}

type tapEndpoint struct {
	inner transport.Endpoint
	net   *tap
	sent  atomic.Uint64 // mirrors the transport's per-endpoint Seq stamp

	mu  sync.Mutex
	rec []span
}

func (e *tapEndpoint) record(s span) {
	e.mu.Lock()
	e.rec = append(e.rec, s)
	e.mu.Unlock()
}

func (e *tapEndpoint) Name() string { return e.inner.Name() }

func (e *tapEndpoint) Send(ctx context.Context, to, kind string, hdr transport.Header, payload []byte) error {
	seq := e.sent.Add(1)
	start := time.Since(e.net.epoch)
	err := e.inner.Send(ctx, to, kind, hdr, payload)
	if err == nil {
		// Only delivered sends count, as in transport.Stats.
		e.record(span{send: true, ep: e.inner.Name(), peer: to, kind: kind, round: hdr.Round,
			seq: seq, n: len(payload), start: start, end: time.Since(e.net.epoch)})
	}
	return err
}

func (e *tapEndpoint) Recv(ctx context.Context) (transport.Message, error) {
	return e.RecvMatch(ctx, nil)
}

func (e *tapEndpoint) RecvMatch(ctx context.Context, filter transport.Filter) (transport.Message, error) {
	start := time.Since(e.net.epoch)
	msg, err := e.inner.RecvMatch(ctx, filter)
	if err == nil {
		e.record(span{ep: e.inner.Name(), peer: msg.From, kind: msg.Kind, round: msg.Round,
			seq: msg.Seq, n: len(msg.Payload), start: start, end: time.Since(e.net.epoch)})
	}
	return msg, err
}

// Evict forwards to the inner endpoint's reorder buffer when it has one.
func (e *tapEndpoint) Evict(f transport.Filter) int {
	if ev, ok := e.inner.(transport.Evictor); ok {
		return ev.Evict(f)
	}
	return 0
}

func (e *tapEndpoint) Close() error { return e.inner.Close() }

const reducerEndpoint = "reducer" // mapreduce's fixed name for the Reducer's endpoint

func isShare(kind string) bool {
	return kind == securesum.KindShare || kind == mapreduce.KindPlainShare || kind == mapreduce.KindCipherShare
}

// census is the tap's own count of delivered sends, which must equal
// History.Net exactly.
func census(spans []span) (msgs, bytes int64) {
	for _, s := range spans {
		if s.send {
			msgs++
			bytes += int64(s.n)
		}
	}
	return msgs, bytes
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

type sendKey struct {
	from string
	seq  uint64
}

type roundKey struct {
	ep    string
	round int32
}

// tapMetrics turns one run's spans into the tap's per-layer metrics.
func tapMetrics(m metrics, spans []span, stats transport.Stats, rounds int) {
	set := func(name string, v float64) { m.set(perLayer, name, v) }
	setTail := func(name string, xs []float64) {
		if len(xs) == 0 {
			return
		}
		v, pct := tail(xs)
		m.setSpread(perLayer, name, v, nil, fmt.Sprintf("p%g n=%d", pct, len(xs)))
	}

	sends := map[sendKey]span{}
	bcastStart := map[int32]time.Duration{}   // reducer starts broadcasting round r
	bcastRecv := map[roundKey]time.Duration{} // mapper holds round r's state
	shareSend := map[roundKey]time.Duration{} // mapper starts sending round r's share
	lastShare := map[int32]span{}             // the share the reducer received last in round r
	recvBusy := map[string]time.Duration{}    // time blocked in Recv, per endpoint
	first, last := map[string]time.Duration{}, map[string]time.Duration{}
	recvsOf := map[roundKey][]span{} // a mapper's receives, by the round they belong to
	var stopStart time.Duration
	var sendBusy, deliver []float64
	var ctrl, seedMsgs int
	var shareBytes int64
	var seedFirst, seedLast time.Duration

	for _, s := range spans {
		if f, ok := first[s.ep]; !ok || s.start < f {
			first[s.ep] = s.start
		}
		if s.end > last[s.ep] {
			last[s.ep] = s.end
		}
		if !s.send {
			recvBusy[s.ep] += s.dur()
			recvsOf[roundKey{s.ep, s.round}] = append(recvsOf[roundKey{s.ep, s.round}], s)
			switch {
			case s.kind == mapreduce.KindBroadcast:
				bcastRecv[roundKey{s.ep, s.round}] = s.end
			case isShare(s.kind) && s.ep == reducerEndpoint:
				if s.end > lastShare[s.round].end {
					lastShare[s.round] = s
				}
			case s.kind == securesum.KindSeed:
				seedLast = max(seedLast, s.end)
			}
			continue
		}
		sends[sendKey{s.ep, s.seq}] = s
		sendBusy = append(sendBusy, ms(s.dur()))
		switch {
		case s.kind == mapreduce.KindBroadcast:
			if t, ok := bcastStart[s.round]; !ok || s.start < t {
				bcastStart[s.round] = s.start
			}
		case s.kind == mapreduce.KindStop:
			if stopStart == 0 || s.start < stopStart {
				stopStart = s.start
			}
		case isShare(s.kind):
			shareSend[roundKey{s.ep, s.round}] = s.start
			shareBytes += int64(s.n)
		case s.kind == mapreduce.KindReady, s.kind == mapreduce.KindRoster:
			ctrl++
		case s.kind == securesum.KindSeed:
			if seedMsgs == 0 || s.start < seedFirst {
				seedFirst = s.start
			}
			seedMsgs++
		}
	}
	for _, s := range spans {
		if s.send {
			continue
		}
		if snd, ok := sends[sendKey{s.peer, s.seq}]; ok {
			deliver = append(deliver, ms(s.end-snd.start))
		}
	}

	// nextStart closes round r: the next broadcast, or the stop after the
	// last round.
	nextStart := func(r int32) (time.Duration, bool) {
		if t, ok := bcastStart[r+1]; ok {
			return t, true
		}
		return stopStart, stopStart > 0
	}
	var roundMs, computeMs, critCompute, critDeliver, foldMs, skew []float64
	var allRounds, explained time.Duration
	for r, t0 := range bcastStart {
		t1, ok := nextStart(r)
		if !ok {
			continue
		}
		round := t1 - t0
		roundMs = append(roundMs, ms(round))
		allRounds += round
		var perMapper []float64
		for ep := range first {
			got, ok1 := bcastRecv[roundKey{ep, r}]
			sent, ok2 := shareSend[roundKey{ep, r}]
			if ep == reducerEndpoint || !ok1 || !ok2 {
				continue
			}
			// Busy time between holding the state and sending the share:
			// anything blocked in Recv in between (the elastic roster wait)
			// is waiting, not computing.
			busy := sent - got
			for _, rv := range recvsOf[roundKey{ep, r}] {
				if rv.start >= got && rv.end <= sent {
					busy -= rv.dur()
				}
			}
			perMapper = append(perMapper, ms(busy))
		}
		computeMs = append(computeMs, perMapper...)
		if len(perMapper) > 0 && round > 0 {
			s := sorted(perMapper)
			skew = append(skew, (s[len(s)-1]-quantile(s, 0.5))/ms(round))
		}
		// The critical path of the round runs through the mapper whose share
		// the reducer received last: broadcast delivery + that mapper's wall
		// from state to share + share delivery + fold = the round, exactly.
		// tap_closure is the share of all round time so explained; the three
		// medians themselves need not sum to the median round when a few
		// long rounds carry the time (hl_chunks_dfs).
		crit, ok := lastShare[r]
		if !ok {
			continue
		}
		got, ok1 := bcastRecv[roundKey{crit.peer, r}]
		snd, ok2 := sends[sendKey{crit.peer, crit.seq}]
		if !ok1 || !ok2 {
			continue
		}
		critCompute = append(critCompute, ms(snd.start-got))
		critDeliver = append(critDeliver, ms((got-t0)+(crit.end-snd.start)))
		foldMs = append(foldMs, ms(t1-crit.end))
		explained += round
	}

	if len(roundMs) > 0 {
		set("mapreduce.round_ms_p50", median(roundMs))
		setTail("mapreduce.round_ms_tail", roundMs)
	}
	if len(computeMs) > 0 {
		set("mapreduce.mapper_compute_ms_p50", median(computeMs))
		setTail("mapreduce.mapper_compute_ms_tail", computeMs)
	}
	if len(skew) > 0 {
		set("mapreduce.mapper_skew_share", median(skew))
	}
	if len(foldMs) > 0 {
		set("mapreduce.critical_compute_ms_p50", median(critCompute))
		set("transport.critical_deliver_ms_p50", median(critDeliver))
		set("mapreduce.reducer_fold_ms_p50", median(foldMs))
		set("mapreduce.tap_closure", float64(explained)/float64(allRounds))
	}
	var idle []float64
	for ep, busy := range recvBusy {
		wall := last[ep] - first[ep]
		if wall <= 0 {
			continue
		}
		share := float64(busy) / float64(wall)
		if ep == reducerEndpoint {
			set("mapreduce.reducer_wait_share", share)
		} else {
			idle = append(idle, share)
		}
	}
	if len(idle) > 0 {
		sum := 0.0
		for _, v := range idle {
			sum += v
		}
		set("mapreduce.mapper_idle_share", sum/float64(len(idle)))
	}
	set("mapreduce.ctrl_msgs_per_round", float64(ctrl)/float64(rounds))
	msgs, bytes := census(spans)
	set("transport.send_calls", float64(msgs))
	set("transport.send_bytes", float64(bytes))
	if len(sendBusy) > 0 {
		set("transport.send_busy_ms_p50", median(sendBusy))
	}
	if len(deliver) > 0 {
		set("transport.deliver_ms_p50", median(deliver))
		setTail("transport.deliver_ms_tail", deliver)
	}
	set("transport.stale_dropped", float64(stats.StaleDropped))
	if seedMsgs > 0 {
		set("securesum.handshake_ms", ms(seedLast-seedFirst))
	}
	set("securesum.seed_msgs", float64(seedMsgs))
	set("securesum.share_bytes_per_round", float64(shareBytes)/float64(rounds))
}

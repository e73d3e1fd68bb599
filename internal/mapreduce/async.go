package mapreduce

// Bounded-staleness rounds (DriverOptions.Staleness): the mapper side.
//
// In a synchronous round a mapper computes its contribution inline between
// receiving a broadcast and declaring ready, so the reducer's straggler window
// covers compute + protocol. Under bounded staleness the
// compute runs on a background worker: when round t's broadcast arrives the
// mapper hands the worker the new state and immediately answers ready with
// its NEWEST completed contribution — possibly one computed against round
// t−s's state — as long as s ≤ S. The share is scaled by κ^s before masking
// (the pairwise masks are content-agnostic, so scaling does not disturb
// roster cancellation), and the staleness s rides as a one-byte public stamp
// on the ready declaration so the reducer can renormalize the fold by
// W = Σ κ^{s_i} (WeightedReducer.SetRoundWeight) without ever seeing an individual share.
//
// A mapper that falls S+1 rounds behind blocks until the worker catches up —
// which, with the newest-wins job queue, means solving against the current
// state — so the lag is genuinely bounded: slow mappers degrade to
// synchronous behaviour (and past the straggler window, to demotion) instead
// of flooding the consensus with ancient updates.

import (
	"context"
	"fmt"
)

// asyncJob is one compute request: the round and a private copy of its state.
type asyncJob struct {
	iter  int
	state []float64
}

// asyncResult is one completed Contribution. contrib is a fresh copy (the
// mapper's internal buffers are reused by its next solve); err is terminal —
// a deterministic Contribution that failed would fail again on the same
// state.
type asyncResult struct {
	iter    int
	contrib []float64
	err     error
}

// asyncComputer runs a mapper's Contribution calls on one background
// goroutine with a newest-wins job queue of depth one. All other methods
// must be called from the protocol-loop goroutine.
type asyncComputer struct {
	solver

	jobs    chan asyncJob
	results chan asyncResult
	done    chan struct{} // closed when the worker exits

	last    asyncResult // newest completed result
	has     bool
	sendBuf []float64 // reused κ^s-scaled share
	stamp   [1]byte   // reused ready-declaration staleness stamp
}

func newAsyncComputer(sv solver) *asyncComputer {
	c := &asyncComputer{
		solver: sv,
		jobs:   make(chan asyncJob, 1),
		// Capacity bounds the worker's undelivered backlog (≤ 1 queued job +
		// 1 in flight) so the worker always exits after close(jobs) even if
		// the protocol loop already unwound.
		results: make(chan asyncResult, 4),
		done:    make(chan struct{}),
	}
	go c.worker()
	return c
}

// worker drains jobs in order. A terminal error is delivered as a result and
// stops the worker.
func (c *asyncComputer) worker() {
	defer close(c.done)
	for j := range c.jobs {
		// Field by field: a composite literal merges its elements' taints
		// (DESIGN.md §13), and contrib would taint the round beside it.
		var r asyncResult
		r.iter = j.iter
		contrib, err := c.solve(j.iter, j.state)
		// The mapper's return value aliases buffers its next solve will
		// overwrite; the result must own its bytes.
		r.contrib, r.err = append([]float64(nil), contrib...), err
		c.results <- r
		if err != nil {
			return
		}
	}
}

// submit hands the worker round iter's state, superseding a queued job the
// worker has not started yet (newest wins: there is no point solving against
// a state the reducer has already replaced). The caller passes ownership of
// state.
func (c *asyncComputer) submit(iter int, state []float64) {
	var j asyncJob // field by field, as in worker
	j.iter, j.state = iter, state
	for {
		select {
		case c.jobs <- j:
			return
		default:
		}
		select {
		case c.jobs <- j:
			return
		case <-c.jobs: // drop the superseded queued job and retry
		}
	}
}

// take folds one completed result into last, keeping the newest round.
func (c *asyncComputer) take(r asyncResult) {
	if r.err != nil || !c.has || r.iter >= c.last.iter {
		c.last = r
		c.has = true
	}
}

// wait blocks until the newest completed contribution is from round minIter
// or later (the staleness bound), returning the worker's terminal error if
// it died.
func (c *asyncComputer) wait(ctx context.Context, minIter int) error {
	for {
		select {
		case r := <-c.results:
			c.take(r)
			continue
		default:
		}
		if c.has {
			if c.last.err != nil {
				return c.last.err
			}
			if c.last.iter >= minIter {
				return nil
			}
		}
		select {
		case r := <-c.results:
			c.take(r)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// share returns the newest contribution scaled by decay^s for round iter,
// in a buffer reused across rounds, along with the one-byte staleness stamp
// for the ready declaration. Call only after a successful wait.
func (c *asyncComputer) share(iter int, decay float64) ([]float64, []byte, error) {
	s := iter - c.last.iter
	if s < 0 || s > 255 {
		return nil, nil, fmt.Errorf("%w: contribution from round %d at round %d", ErrBadJob, c.last.iter, iter)
	}
	w := decayWeight(decay, s)
	if cap(c.sendBuf) < len(c.last.contrib) {
		c.sendBuf = make([]float64, len(c.last.contrib))
	}
	c.sendBuf = c.sendBuf[:len(c.last.contrib)]
	for i, v := range c.last.contrib {
		c.sendBuf[i] = w * v
	}
	c.stamp[0] = byte(s)
	return c.sendBuf, c.stamp[:], nil
}

// close stops the worker after it finishes any queued work and joins it.
// The join publishes the mapper's final state to the protocol-loop goroutine:
// callers read mapper state (model assembly) as soon as the driver returns, so
// an in-flight Contribution must not outlive the node. Results are drained
// while waiting so a full channel cannot wedge the worker's last send.
func (c *asyncComputer) close() {
	close(c.jobs)
	for {
		select {
		case <-c.results:
		case <-c.done:
			return
		}
	}
}

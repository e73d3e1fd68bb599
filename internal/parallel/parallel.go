// Package parallel provides the bounded worker pool behind every multi-core
// hot path in this repository: kernel (Gram) matrices, dense linear algebra,
// the local MapReduce runtime, and per-element Paillier operations.
//
// The design is a range-splitter over a caller-bounded set of goroutines
// rather than a resident thread pool: For splits [0, n) into contiguous
// blocks and lets up to Workers() goroutines (the caller included) claim
// blocks off an atomic counter. Dynamic claiming keeps triangular workloads
// (Gram rows, factorization trailing updates) balanced without any
// work-estimation logic, and a call with one worker — or a range too small
// to split — degenerates to a plain sequential loop on the calling
// goroutine, so small per-iteration QPs never pay scheduling overhead.
//
// The worker budget is runtime.GOMAXPROCS(0) at startup; SetWorkers overrides
// it for a benchmark or a test.
//
// The package also owns the dispatch decision shared by the compute kernels:
// UsePool compares an operation's scalar multiply-adds against Threshold
// (DefaultThreshold unless SetThreshold moved it) and RowGrain sizes the
// blocks of a row loop.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

var (
	workers   atomic.Int64
	threshold atomic.Int64
)

func init() {
	workers.Store(int64(runtime.GOMAXPROCS(0)))
	threshold.Store(DefaultThreshold)
}

// DefaultThreshold is the built-in parallel-dispatch threshold: loops below
// this many scalar multiply-adds stay sequential so the tiny per-iteration
// ADMM systems never pay pool-scheduling overhead.
const DefaultThreshold = 1 << 15

// Threshold returns the current parallel-dispatch threshold in scalar
// multiply-adds (≥ 1).
func Threshold() int { return int(threshold.Load()) }

// SetThreshold overrides the dispatch threshold and returns the previous
// value. n < 1 restores DefaultThreshold. Safe for concurrent use; kernels
// pick up the new value on their next dispatch decision.
func SetThreshold(n int) int {
	if n < 1 {
		n = DefaultThreshold
	}
	return int(threshold.Swap(int64(n)))
}

// Workers returns the current worker budget (≥ 1).
func Workers() int { return int(workers.Load()) }

// SetWorkers overrides the worker budget and returns the previous value.
// n < 1 restores GOMAXPROCS. It is safe for concurrent use; in-flight For
// calls keep the budget they started with.
func SetWorkers(n int) int {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return int(workers.Swap(int64(n)))
}

// UsePool reports whether a loop of totalWork multiply-adds should be
// dispatched to the worker pool. Call sites keep a direct loop for the
// sequential case — routing it through For's closure costs 15–60% on the
// compute kernels (captured-variable indirection defeats the optimizations
// the compiler applies to the plain loop), which would be paid on every
// single-core run.
func UsePool(totalWork int) bool {
	return totalWork >= Threshold() && Workers() > 1
}

// RowGrain sizes a For grain for a loop over rows of rowWork multiply-adds
// each: enough rows per block to amortize a block claim, one row when rows
// are already expensive (dynamic claiming then balances triangular loops).
func RowGrain(rowWork int) int {
	if rowWork >= 1024 {
		return 1
	}
	return 1 + 1024/(rowWork+1)
}

// For splits the index range [0, n) into contiguous blocks of at least grain
// indices and calls fn(lo, hi) once per block, 0 ≤ lo < hi ≤ n, covering the
// range exactly once. Blocks run on up to Workers() goroutines; fn must be
// safe to call concurrently on disjoint ranges. When only one block fits (or
// a single worker is configured) fn runs once, inline, on the calling
// goroutine. For returns after every block has completed.
func For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	blocks := (n + grain - 1) / grain
	w := Workers()
	if w > blocks {
		w = blocks
	}
	if w <= 1 {
		fn(0, n)
		return
	}
	d := &dispatch{n: n, grain: grain, blocks: blocks, fn: fn}
	d.wg.Add(w - 1)
	for i := 1; i < w; i++ {
		go d.worker()
	}
	d.claim()
	d.wg.Wait()
}

// dispatch is one parallel For call's shared state: the block counter its
// goroutines claim from and the group the caller waits on, in one heap object
// for the whole call.
type dispatch struct {
	next             atomic.Int64
	wg               sync.WaitGroup
	n, grain, blocks int
	fn               func(lo, hi int)
}

// claim runs blocks off the counter until none is left.
func (d *dispatch) claim() {
	for {
		b := int(d.next.Add(1)) - 1
		if b >= d.blocks {
			return
		}
		lo := b * d.grain
		d.fn(lo, min(lo+d.grain, d.n))
	}
}

func (d *dispatch) worker() {
	defer d.wg.Done()
	d.claim()
}

package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// coverage runs For and checks that [0, n) is covered exactly once.
func coverage(t *testing.T, n, grain int) {
	t.Helper()
	hits := make([]int32, n)
	For(n, grain, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("For(%d, %d): bad block [%d, %d)", n, grain, lo, hi)
			return
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("For(%d, %d): index %d visited %d times, want 1", n, grain, i, h)
		}
	}
}

func TestForCoversRange(t *testing.T) {
	for _, w := range []int{1, 2, 4, 16} {
		prev := SetWorkers(w)
		for _, n := range []int{1, 2, 3, 7, 64, 1000} {
			for _, grain := range []int{0, 1, 3, 8, 1000, 5000} {
				coverage(t, n, grain)
			}
		}
		SetWorkers(prev)
	}
}

func TestForEmptyRange(t *testing.T) {
	called := false
	For(0, 1, func(lo, hi int) { called = true })
	For(-5, 1, func(lo, hi int) { called = true })
	if called {
		t.Error("For on empty range invoked fn")
	}
}

func TestForWorkersExceedItems(t *testing.T) {
	prev := SetWorkers(64)
	defer SetWorkers(prev)
	coverage(t, 3, 1) // 3 blocks, 64 workers
	coverage(t, 1, 1) // single block degenerates to inline call
}

func TestForSingleWorkerRunsInline(t *testing.T) {
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	calls := 0
	For(100, 7, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 100 {
			t.Errorf("single worker: block [%d, %d), want [0, 100)", lo, hi)
		}
	})
	if calls != 1 {
		t.Errorf("single worker: %d calls, want 1", calls)
	}
}

func TestSetWorkers(t *testing.T) {
	orig := Workers()
	if orig < 1 {
		t.Fatalf("Workers() = %d, want ≥ 1", orig)
	}
	if prev := SetWorkers(5); prev != orig {
		t.Errorf("SetWorkers returned %d, want %d", prev, orig)
	}
	if Workers() != 5 {
		t.Errorf("Workers() = %d after SetWorkers(5)", Workers())
	}
	SetWorkers(0)
	if Workers() != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers() = %d after SetWorkers(0), want GOMAXPROCS = %d", Workers(), runtime.GOMAXPROCS(0))
	}
	SetWorkers(orig)
}

// TestForConcurrentCallers exercises nested/overlapping For calls from
// several goroutines; run with -race.
func TestForConcurrentCallers(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			For(500, 9, func(lo, hi int) {
				total.Add(int64(hi - lo))
			})
		}()
	}
	wg.Wait()
	if got := total.Load(); got != 8*500 {
		t.Errorf("concurrent For covered %d indices, want %d", got, 8*500)
	}
}

func TestSetThreshold(t *testing.T) {
	orig := Threshold()
	if orig < 1 {
		t.Fatalf("Threshold() = %d, want ≥ 1", orig)
	}
	if prev := SetThreshold(4096); prev != orig {
		t.Errorf("SetThreshold returned %d, want %d", prev, orig)
	}
	if Threshold() != 4096 {
		t.Errorf("Threshold() = %d after SetThreshold(4096)", Threshold())
	}
	SetThreshold(0)
	if Threshold() != DefaultThreshold {
		t.Errorf("Threshold() = %d after SetThreshold(0), want DefaultThreshold = %d", Threshold(), DefaultThreshold)
	}
	SetThreshold(orig)
}

// TestForDispatchAllocations pins what a pooled For call allocates: the
// caller's fn closure, the one dispatch its goroutines share (counter and
// wait group), and the closure of the go statement that starts the second
// worker.
func TestForDispatchAllocations(t *testing.T) {
	prev := SetWorkers(2)
	defer SetWorkers(prev)
	var total atomic.Int64
	n := 64
	if allocs := testing.AllocsPerRun(100, func() {
		For(n, 1, func(lo, hi int) { total.Add(int64(hi - lo + n)) })
	}); allocs != 3 {
		t.Errorf("a For call on 2 workers allocated %v times, want 3", allocs)
	}
}

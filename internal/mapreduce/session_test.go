package mapreduce

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ppml-go/ppml/internal/transport"
)

// stallingMapper contributes a constant vector but sleeps first, simulating
// a straggler node that holds up every aggregation round.
type stallingMapper struct {
	value []float64
	delay time.Duration
	calls atomic.Int64
}

func (m *stallingMapper) Contribution(iter int, state []float64) ([]float64, error) {
	m.calls.Add(1)
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	return append([]float64(nil), m.value...), nil
}

// countingReducer sums forever (never signals done).
type countingReducer struct{ dim int }

func (r *countingReducer) Combine(iter int, sum []float64, _ int) ([]float64, bool, error) {
	return make([]float64, r.dim), false, nil
}

// waitForGoroutines retries until the goroutine count returns to (near) the
// baseline; background runtime goroutines make an exact match too strict.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d at start, %d still running", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestJobDeadlineSurfacesRoundStampedError: a strict round has no deadline of
// its own and waits for a hanging mapper until the job's context ends; the
// error it then fails with wraps the context's and names the round.
func TestJobDeadlineSurfacesRoundStampedError(t *testing.T) {
	before := runtime.NumGoroutine()
	job := IterativeJob{
		Mappers: []IterativeMapper{
			&stallingMapper{value: []float64{1, 2}},
			&stallingMapper{value: []float64{3, 4}, delay: 400 * time.Millisecond},
		},
		Reducer:         &countingReducer{dim: 2},
		InitialState:    []float64{0, 0},
		ContributionDim: 2,
		MaxIterations:   10,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := RunDistributed(ctx, job, DriverOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "round 0") {
		t.Fatalf("error %q is not round-stamped", err)
	}
	waitForGoroutines(t, before)
}

func TestRunDistributedCancelMidRound(t *testing.T) {
	before := runtime.NumGoroutine()
	job := IterativeJob{
		Mappers: []IterativeMapper{
			&stallingMapper{value: []float64{1}},
			&stallingMapper{value: []float64{2}, delay: 300 * time.Millisecond},
		},
		Reducer:         &countingReducer{dim: 1},
		InitialState:    []float64{0},
		ContributionDim: 1,
		MaxIterations:   1000,
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := RunDistributed(ctx, job, DriverOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
	waitForGoroutines(t, before)
}

func TestRunLocalContextCancel(t *testing.T) {
	job := IterativeJob{
		Mappers:         []IterativeMapper{&stallingMapper{value: []float64{1}}},
		Reducer:         &countingReducer{dim: 1},
		InitialState:    []float64{0},
		ContributionDim: 1,
		MaxIterations:   1000,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunLocalContext(ctx, job); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSequentialJobsShareNetwork runs two jobs back to back on one
// caller-provided network: the first job's endpoints must be released (no
// ErrDuplicateEndpoint) and each job gets its own session id, so the second
// job's transcript cannot be confused with leftovers of the first.
func TestSequentialJobsShareNetwork(t *testing.T) {
	net := transport.NewInProc()
	defer net.Close()
	job := IterativeJob{
		Mappers: []IterativeMapper{
			&stallingMapper{value: []float64{1, 5}},
			&stallingMapper{value: []float64{2, -3}},
		},
		Reducer:         &countingReducer{dim: 2},
		InitialState:    []float64{0, 0},
		ContributionDim: 2,
		MaxIterations:   3,
	}
	for run := 0; run < 2; run++ {
		if _, err := RunDistributed(context.Background(), job, DriverOptions{Network: net}); err != nil {
			t.Fatalf("run %d on shared network: %v", run, err)
		}
	}
}

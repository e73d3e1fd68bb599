package mapreduce

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ppml-go/ppml/internal/transport"
)

// averagingMapper implements a toy consensus: each node owns a private
// vector and contributes value − state; the reducer nudges the state by the
// mean contribution, converging on the global average. It is structurally the
// same loop the SVM trainers run.
type averagingMapper struct {
	value []float64
	calls atomic.Int64
	// failUntil makes Contribution fail on iterations < failUntil (transient
	// fault injection).
	failUntil int
	failCount atomic.Int64
}

func (m *averagingMapper) Contribution(iter int, state []float64) ([]float64, error) {
	m.calls.Add(1)
	if iter < m.failUntil && m.failCount.Add(1) <= int64(m.failUntil) {
		return nil, errors.New("injected transient fault")
	}
	out := make([]float64, len(m.value))
	for i := range out {
		out[i] = m.value[i] - state[i]
	}
	return out, nil
}

type averagingReducer struct {
	m         int
	tol       float64
	lastState []float64
	// history records ‖Δstate‖² per iteration.
	history []float64
}

func (r *averagingReducer) Combine(iter int, sum []float64, _ int) ([]float64, bool, error) {
	// state ← state + mean(contribution) means next = prev + sum/m; but the
	// reducer only sees the sum, so reconstruct next directly: the driver
	// passes contributions relative to current state, so the step size is
	// ‖sum‖/m.
	delta := 0.0
	next := make([]float64, len(sum))
	for i := range sum {
		step := sum[i] / float64(r.m)
		next[i] = r.last(i) + step
		delta += step * step
	}
	r.lastState = next
	r.history = append(r.history, delta)
	return next, delta < r.tol*r.tol, nil
}

func (r *averagingReducer) last(i int) float64 {
	if r.lastState == nil {
		return 0
	}
	return r.lastState[i]
}

func newAveragingJob(values [][]float64, maxIter int) (IterativeJob, *averagingReducer) {
	mappers := make([]IterativeMapper, len(values))
	for i := range values {
		mappers[i] = &averagingMapper{value: values[i]}
	}
	red := &averagingReducer{m: len(values), tol: 1e-9}
	return IterativeJob{
		Mappers:         mappers,
		Reducer:         red,
		InitialState:    make([]float64, len(values[0])),
		ContributionDim: len(values[0]),
		MaxIterations:   maxIter,
	}, red
}

// runLocal runs the local engine under a background context; the engine's
// own tests don't exercise cancellation here (see TestRunLocalContextCancel).
func runLocal(job IterativeJob) (*IterativeResult, error) {
	return RunLocalContext(context.Background(), job)
}

func TestRunLocalConvergesToAverage(t *testing.T) {
	values := [][]float64{{1, 10}, {3, 20}, {5, 30}}
	job, _ := newAveragingJob(values, 100)
	res, err := runLocal(job)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d iterations", res.Iterations)
	}
	want := []float64{3, 20}
	for i := range want {
		if math.Abs(res.FinalState[i]-want[i]) > 1e-3 {
			t.Errorf("state[%d] = %g, want %g", i, res.FinalState[i], want[i])
		}
	}
}

func TestRunLocalValidation(t *testing.T) {
	if _, err := runLocal(IterativeJob{}); !errors.Is(err, ErrBadJob) {
		t.Errorf("empty job: err = %v, want ErrBadJob", err)
	}
	job, _ := newAveragingJob([][]float64{{1}}, 10)
	job.Reducer = nil
	if _, err := runLocal(job); !errors.Is(err, ErrBadJob) {
		t.Errorf("nil reducer: err = %v, want ErrBadJob", err)
	}
	job, _ = newAveragingJob([][]float64{{1}}, 10)
	job.ContributionDim = 2 // mapper returns 1 value
	if _, err := runLocal(job); !errors.Is(err, ErrBadJob) {
		t.Errorf("dim mismatch: err = %v, want ErrBadJob", err)
	}
	job, _ = newAveragingJob([][]float64{{1}}, 0)
	if _, err := runLocal(job); !errors.Is(err, ErrBadJob) {
		t.Errorf("zero iterations: err = %v, want ErrBadJob", err)
	}
	job, _ = newAveragingJob([][]float64{{1}}, 10)
	job.Mappers[0] = nil
	if _, err := runLocal(job); !errors.Is(err, ErrBadJob) {
		t.Errorf("nil mapper: err = %v, want ErrBadJob", err)
	}
}

func TestRunLocalIterationCapWithoutConvergence(t *testing.T) {
	values := [][]float64{{1e6}, {-1e6}}
	job, red := newAveragingJob(values, 3)
	red.tol = 0 // never converge
	res, err := runLocal(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.Iterations != 3 {
		t.Errorf("converged=%v iterations=%d, want false/3", res.Converged, res.Iterations)
	}
}

func TestRunLocalMapperErrorAborts(t *testing.T) {
	job, _ := newAveragingJob([][]float64{{1}, {2}}, 10)
	job.Mappers[1] = &averagingMapper{value: []float64{2}, failUntil: 100}
	if _, err := runLocal(job); !errors.Is(err, ErrAborted) {
		t.Errorf("mapper error: err = %v, want ErrAborted", err)
	}
}

func mustJob(t *testing.T, values [][]float64, maxIter int) IterativeJob {
	t.Helper()
	job, _ := newAveragingJob(values, maxIter)
	return job
}

func TestDistributedMaskedTrafficExceedsPlain(t *testing.T) {
	values := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	m := int64(len(values))

	run := func(agg Aggregation) (transport.Stats, int64) {
		net := transport.NewInProc()
		defer net.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		res, err := RunDistributed(ctx, mustJob(t, values, 5), DriverOptions{
			Network: net, Aggregation: agg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return net.Stats(), int64(res.Iterations)
	}

	plainStats, plainIters := run(AggregationPlain)
	seededStats, seededIters := run(AggregationMasked)
	if seededIters != plainIters {
		t.Fatalf("iteration counts diverged: plain %d, seeded %d", plainIters, seededIters)
	}

	// Masking pays for privacy with exactly one m(m−1)-message seed exchange
	// per session, independent of round count.
	if got, want := seededStats.Messages-plainStats.Messages, m*(m-1); got != want {
		t.Errorf("seeded masked-vs-plain message delta = %d, want %d (one seed exchange per session)",
			got, want)
	}
}

func TestDistributedFatalFaultAborts(t *testing.T) {
	values := [][]float64{{2}, {4}}
	job := mustJob(t, values, 50)
	job.Mappers[1] = &averagingMapper{value: []float64{4}, failUntil: 1000}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := RunDistributed(ctx, job, DriverOptions{}); !errors.Is(err, ErrAborted) {
		t.Errorf("fatal fault: err = %v, want ErrAborted", err)
	}
}

// overflowMapper contributes value − state until round at, and from then on
// a value past the fixed-point codec's range: its Contribution succeeds and
// its share encode fails.
type overflowMapper struct {
	value float64
	at    int
}

func (m overflowMapper) Contribution(iter int, state []float64) ([]float64, error) {
	if iter >= m.at {
		return []float64{1e15}, nil
	}
	return []float64{m.value - state[0]}, nil
}

// TestStrictShareFailureAborts: a mapper whose masked share cannot be encoded
// aborts a strict job. A strict round has no window, so
// a mapper that exits without telling the Reducer would hang the job until
// its context ends; here the context never does, and a failsafe timer turns
// such a hang into a failure.
func TestStrictShareFailureAborts(t *testing.T) {
	t.Run("seeded", func(t *testing.T) {
		job, red := newAveragingJob([][]float64{{1}, {2}, {3}}, 10)
		red.tol = 0 // never converge before round 2
		job.Mappers[1] = overflowMapper{value: 2, at: 2}
		done := make(chan error, 1)
		go func() {
			_, err := RunDistributed(context.Background(), job, DriverOptions{})
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, ErrAborted) || !strings.Contains(err.Error(), "round 2") {
				t.Errorf("err = %v, want ErrAborted naming round 2", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("job still running 30 s after mapper 1's share encode failed at round 2")
		}
	})
}

// TestWireRoundTrip: the float-vector codec of broadcasts round-trips bit for
// bit (signed zero, NaN payload bits and infinities included), appends after
// what dst already holds, and rejects a byte count that is not a multiple of
// 8 with ErrBadJob.
func TestWireRoundTrip(t *testing.T) {
	state := []float64{1.5, -2.25, math.Pi, math.Copysign(0, -1), math.Inf(-1), math.Float64frombits(0x7ff8_0000_dead_beef)}
	b := appendVector(nil, state)
	if len(b) != 8*len(state) {
		t.Fatalf("frame of %d bytes for %d values, want %d", len(b), len(state), 8*len(state))
	}
	v, err := decodeVectorInto(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range state {
		if math.Float64bits(v[i]) != math.Float64bits(state[i]) {
			t.Errorf("vector[%d] = %x, want %x", i, math.Float64bits(v[i]), math.Float64bits(state[i]))
		}
	}
	if got := appendVector([]byte{9}, state[:1]); len(got) != 9 || got[0] != 9 {
		t.Errorf("append onto one byte gave %x, want the byte kept and 8 more", got)
	}
	if v, err := decodeVectorInto(nil, nil); err != nil || len(v) != 0 {
		t.Errorf("empty frame: %v, %v; want an empty vector", v, err)
	}
	for _, n := range []int{1, 3, 7, 9, 8*len(state) - 1} {
		if _, err := decodeVectorInto(nil, b[:n]); !errors.Is(err, ErrBadJob) {
			t.Errorf("%d-byte frame: err = %v, want ErrBadJob", n, err)
		}
	}
}

// countingMapper records the round of every Contribution call.
type countingMapper struct {
	averagingMapper
	mu    sync.Mutex
	iters []int
}

func (m *countingMapper) Contribution(iter int, state []float64) ([]float64, error) {
	m.mu.Lock()
	m.iters = append(m.iters, iter)
	m.mu.Unlock()
	return m.averagingMapper.Contribution(iter, state)
}

// TestContributionOncePerRound pins the contract that lets a mapper keep no
// replay of its own: an engine calls Contribution at most once per round, in
// increasing round order. Local, strict and fault-free elastic rounds call
// every mapper in every round.
func TestContributionOncePerRound(t *testing.T) {
	values := [][]float64{{1, 10}, {3, 20}, {5, 30}}
	const rounds = 12
	for _, tc := range []struct {
		name string
		opts *DriverOptions // nil runs RunLocalContext
	}{
		{"local", nil},
		{"strict", &DriverOptions{}},
		{"elastic", &DriverOptions{StragglerTimeout: 5 * time.Second}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			job, red := newAveragingJob(values, rounds)
			red.tol = 0 // run the budget
			mappers := make([]*countingMapper, len(values))
			for i, v := range values {
				mappers[i] = &countingMapper{averagingMapper: averagingMapper{value: v}}
				job.Mappers[i] = mappers[i]
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			var res *IterativeResult
			if tc.opts == nil {
				var err error
				if res, err = RunLocalContext(ctx, job); err != nil {
					t.Fatal(err)
				}
			} else {
				dres, err := RunDistributed(ctx, job, *tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				res = &dres.IterativeResult
			}
			if res.Iterations != rounds {
				t.Fatalf("ran %d rounds, want %d", res.Iterations, rounds)
			}
			for i, mp := range mappers {
				mp.mu.Lock()
				iters := append([]int(nil), mp.iters...)
				mp.mu.Unlock()
				for j, it := range iters {
					if it < 0 || it >= rounds || (j > 0 && it <= iters[j-1]) {
						t.Fatalf("mapper %d was called for rounds %v: want each of [0, %d) at most once, in order", i, iters, rounds)
					}
				}
				if len(iters) != rounds {
					t.Errorf("mapper %d was called for rounds %v, want every round of [0, %d) once", i, iters, rounds)
				}
			}
		})
	}
}

func TestDistributedContextCancellation(t *testing.T) {
	// Cancel mid-job: everything must unwind with an error, no goroutine
	// leaks (the race detector build catches stragglers via the network
	// close in RunDistributed's defer).
	values := [][]float64{{1e9}, {2e9}}
	job, red := newAveragingJob(values, 1_000_000)
	red.tol = 0 // never converge
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunDistributed(ctx, job, DriverOptions{})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("cancelled job returned nil error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled job did not unwind")
	}
}

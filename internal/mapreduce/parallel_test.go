package mapreduce

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/ppml-go/ppml/internal/parallel"
)

// statefulMapper keeps per-mapper mutable state across iterations, so the
// race detector can verify that RunLocal's concurrent Contribution calls
// never share a mapper between goroutines.
type statefulMapper struct {
	data    []float64
	history []float64 // grows every iteration: mutation under concurrency
}

func (m *statefulMapper) Contribution(iter int, state []float64) ([]float64, error) {
	out := make([]float64, len(state))
	for i, v := range m.data {
		out[i%len(out)] += v * state[i%len(state)]
	}
	m.history = append(m.history, out[0])
	return out, nil
}

type dampingReducer struct{ rounds int }

func (r *dampingReducer) Combine(iter int, sum []float64, _ int) ([]float64, bool, error) {
	next := make([]float64, len(sum))
	for i, v := range sum {
		next[i] = v * 0.5
	}
	return next, iter+1 >= r.rounds, nil
}

func newStatefulJob(seed int64, mappers int) IterativeJob {
	rng := rand.New(rand.NewSource(seed))
	job := IterativeJob{
		Reducer:         &dampingReducer{rounds: 6},
		InitialState:    []float64{1, -0.5, 0.25},
		ContributionDim: 3,
		MaxIterations:   10,
	}
	for i := 0; i < mappers; i++ {
		data := make([]float64, 12)
		for j := range data {
			data[j] = rng.NormFloat64()
		}
		job.Mappers = append(job.Mappers, &statefulMapper{data: data})
	}
	return job
}

// TestRunLocalConcurrentMatchesSequential pins the determinism contract: the
// concurrent mapper fan-out must produce bit-identical results to a
// single-worker run because contributions are folded in mapper order.
func TestRunLocalConcurrentMatchesSequential(t *testing.T) {
	for _, mappers := range []int{1, 3, 8, 17} {
		prev := parallel.SetWorkers(1)
		seq, err := runLocal(newStatefulJob(int64(mappers), mappers))
		if err != nil {
			parallel.SetWorkers(prev)
			t.Fatal(err)
		}
		parallel.SetWorkers(8)
		par, err := runLocal(newStatefulJob(int64(mappers), mappers))
		parallel.SetWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		if seq.Iterations != par.Iterations || seq.Converged != par.Converged {
			t.Fatalf("mappers=%d: (%d, %v) vs sequential (%d, %v)",
				mappers, par.Iterations, par.Converged, seq.Iterations, seq.Converged)
		}
		for i := range seq.FinalState {
			if seq.FinalState[i] != par.FinalState[i] {
				t.Fatalf("mappers=%d: FinalState[%d] = %g, sequential %g",
					mappers, i, par.FinalState[i], seq.FinalState[i])
			}
		}
	}
}

// TestRunLocalStatefulMappersUnderRace runs many stateful mappers on a wide
// pool purely so `go test -race` can observe the concurrent Contribution
// calls mutating their per-mapper state.
func TestRunLocalStatefulMappersUnderRace(t *testing.T) {
	prev := parallel.SetWorkers(16)
	defer parallel.SetWorkers(prev)
	job := newStatefulJob(99, 32)
	res, err := runLocal(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 6 || !res.Converged {
		t.Fatalf("Iterations = %d, Converged = %v", res.Iterations, res.Converged)
	}
	for i, m := range job.Mappers {
		if got := len(m.(*statefulMapper).history); got != 6 {
			t.Fatalf("mapper %d ran %d iterations, want 6", i, got)
		}
	}
}

type failingMapper struct {
	failAt int // mapper fails from this iteration on; -1 never fails
}

func (m *failingMapper) Contribution(iter int, state []float64) ([]float64, error) {
	if m.failAt >= 0 && iter >= m.failAt {
		return nil, fmt.Errorf("mapper broke at %d", iter)
	}
	return []float64{1}, nil
}

// TestRunLocalErrorReportsLowestMapper checks the deterministic error choice:
// when several concurrent mappers fail in the same iteration, the reported
// failure is always the lowest mapper index, matching sequential behaviour.
func TestRunLocalErrorReportsLowestMapper(t *testing.T) {
	prev := parallel.SetWorkers(8)
	defer parallel.SetWorkers(prev)
	job := IterativeJob{
		Mappers: []IterativeMapper{
			&failingMapper{failAt: -1},
			&failingMapper{failAt: 1},
			&failingMapper{failAt: 1},
			&failingMapper{failAt: 0},
		},
		Reducer:         &dampingReducer{rounds: 4},
		InitialState:    []float64{0},
		ContributionDim: 1,
		MaxIterations:   4,
	}
	// Iteration 0: only mapper 3 fails → it is reported. A fresh job where
	// mappers 1, 2 and 3 all fail at iteration 1 must report mapper 1.
	_, err := runLocal(job)
	if !errors.Is(err, ErrAborted) || !strings.Contains(err.Error(), "mapper 3") {
		t.Fatalf("err = %v, want ErrAborted from mapper 3", err)
	}

	job.Mappers[3] = &failingMapper{failAt: 1}
	_, err = runLocal(job)
	if !errors.Is(err, ErrAborted) || !strings.Contains(err.Error(), "mapper 1") {
		t.Fatalf("err = %v, want ErrAborted from mapper 1 (lowest failing index)", err)
	}
	if !strings.Contains(err.Error(), "iteration 1") {
		t.Fatalf("err = %v, want failure at iteration 1", err)
	}
}

// TestRunLocalDimensionMismatchReported ensures the dim check still fires
// with the concurrent fan-out in place.
func TestRunLocalDimensionMismatchReported(t *testing.T) {
	job := IterativeJob{
		Mappers:         []IterativeMapper{&failingMapper{failAt: -1}},
		Reducer:         &dampingReducer{rounds: 2},
		InitialState:    []float64{0, 0},
		ContributionDim: 2, // failingMapper always contributes 1 value
		MaxIterations:   2,
	}
	_, err := runLocal(job)
	if !errors.Is(err, ErrBadJob) {
		t.Fatalf("err = %v, want ErrBadJob", err)
	}
}

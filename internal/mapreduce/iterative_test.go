package mapreduce

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ppml-go/ppml/internal/dfs"
	"github.com/ppml-go/ppml/internal/paillier"
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

func (r *averagingReducer) Combine(iter int, sum []float64) ([]float64, bool, error) {
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

	run := func(agg Aggregation, mode MaskMode) (transport.Stats, int64) {
		net := transport.NewInProc()
		defer net.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		res, err := RunDistributed(ctx, mustJob(t, values, 5), DriverOptions{
			Network: net, Aggregation: agg, MaskMode: mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		return net.Stats(), int64(res.Iterations)
	}

	plainStats, plainIters := run(AggregationPlain, MaskSeeded)
	seededStats, seededIters := run(AggregationMasked, MaskSeeded)
	perRoundStats, perRoundIters := run(AggregationMasked, MaskPerRound)
	if seededIters != plainIters || perRoundIters != plainIters {
		t.Fatalf("iteration counts diverged: plain %d, seeded %d, per-round %d",
			plainIters, seededIters, perRoundIters)
	}

	// Seeded masking (the default) pays for privacy with exactly one
	// m(m−1)-message seed exchange per session, independent of round count.
	if got, want := seededStats.Messages-plainStats.Messages, m*(m-1); got != want {
		t.Errorf("seeded masked-vs-plain message delta = %d, want %d (one seed exchange per session)",
			got, want)
	}
	// Per-round masking pays m(m−1) mask messages every aggregation round.
	if got, want := perRoundStats.Messages-plainStats.Messages, plainIters*m*(m-1); got != want {
		t.Errorf("per-round masked-vs-plain message delta = %d, want %d (m(m−1) masks per round)",
			got, want)
	}
	if seededStats.Messages >= perRoundStats.Messages {
		t.Errorf("seeded mode sent %d messages, per-round %d; seeding must strictly reduce traffic",
			seededStats.Messages, perRoundStats.Messages)
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

func TestLocalityAccounting(t *testing.T) {
	cluster, err := dfs.NewCluster(dfs.WithBlockSize(64))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"n0", "n1"} {
		if err := cluster.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := cluster.Write("/p0", make([]byte, 500), "n0"); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Write("/p1", make([]byte, 300), "n1"); err != nil {
		t.Fatal(err)
	}
	values := [][]float64{{1}, {3}}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Locality-aware placement: zero remote input bytes.
	resLocal, err := RunDistributed(ctx, mustJob(t, values, 30), DriverOptions{
		Locality: &LocalityPlan{
			Cluster:   cluster,
			InputPath: []string{"/p0", "/p1"},
			NodeOf:    []string{"n0", "n1"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resLocal.RemoteInputBytes != 0 {
		t.Errorf("locality-aware remote bytes = %d, want 0", resLocal.RemoteInputBytes)
	}

	// Anti-locality placement: every byte crosses the network.
	resRemote, err := RunDistributed(ctx, mustJob(t, values, 30), DriverOptions{
		Locality: &LocalityPlan{
			Cluster:   cluster,
			InputPath: []string{"/p0", "/p1"},
			NodeOf:    []string{"n1", "n0"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resRemote.RemoteInputBytes != 800 {
		t.Errorf("anti-locality remote bytes = %d, want 800", resRemote.RemoteInputBytes)
	}

	// Incomplete plan errors.
	if _, err := RunDistributed(ctx, mustJob(t, values, 5), DriverOptions{
		Locality: &LocalityPlan{Cluster: cluster},
	}); !errors.Is(err, ErrBadJob) {
		t.Errorf("incomplete plan: err = %v, want ErrBadJob", err)
	}
}

func TestWireRoundTrip(t *testing.T) {
	iter, state := 7, []float64{1.5, -2.25, math.Pi}
	gotIter, gotState, err := decodeStatePayload(encodeStatePayload(iter, state))
	if err != nil {
		t.Fatal(err)
	}
	if gotIter != iter {
		t.Errorf("iter = %d, want %d", gotIter, iter)
	}
	for i := range state {
		if gotState[i] != state[i] {
			t.Errorf("state[%d] = %g, want %g", i, gotState[i], state[i])
		}
	}
	v, err := decodeVector(encodeVector(state))
	if err != nil {
		t.Fatal(err)
	}
	for i := range state {
		if v[i] != state[i] {
			t.Errorf("vector[%d] = %g, want %g", i, v[i], state[i])
		}
	}
	if _, _, err := decodeStatePayload([]byte{1, 2, 3}); !errors.Is(err, ErrBadJob) {
		t.Errorf("short payload: err = %v, want ErrBadJob", err)
	}
	if _, err := decodeVector([]byte{1, 2, 3}); !errors.Is(err, ErrBadJob) {
		t.Errorf("ragged vector: err = %v, want ErrBadJob", err)
	}
}

func TestDistributedPaillierAggregation(t *testing.T) {
	key, err := paillier.GenerateKey(nil, 512)
	if err != nil {
		t.Fatal(err)
	}
	values := [][]float64{{1.5, -3}, {2.5, 7}, {-1, 0.5}}
	local, err := runLocal(mustJob(t, values, 15))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	dist, err := RunDistributed(ctx, mustJob(t, values, 15), DriverOptions{
		Aggregation: AggregationPaillier,
		PaillierKey: key,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range local.FinalState {
		if math.Abs(dist.FinalState[i]-local.FinalState[i]) > 1e-6 {
			t.Errorf("state[%d]: paillier %g vs local %g", i, dist.FinalState[i], local.FinalState[i])
		}
	}
	// Ciphertext payloads still dwarf plain ones (each ciphertext is
	// N²-sized), but slot packing bounds the blow-up to ⌈d/k⌉ ciphertexts
	// per share instead of d.
	plain, err := RunDistributed(ctx, mustJob(t, values, 15), DriverOptions{
		Aggregation: AggregationPlain,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dist.Net.Bytes <= plain.Net.Bytes {
		t.Errorf("paillier moved %d bytes, plain %d; ciphertext blow-up missing?",
			dist.Net.Bytes, plain.Net.Bytes)
	}
	// Forcing width 1 reproduces the per-element layout; the packed run must
	// move strictly fewer bytes and produce the same model.
	unpacked, err := RunDistributed(ctx, mustJob(t, values, 15), DriverOptions{
		Aggregation: AggregationPaillier,
		PaillierKey: key,
		packWidth:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range dist.FinalState {
		if dist.FinalState[i] != unpacked.FinalState[i] {
			t.Errorf("state[%d]: packed %g vs width-1 %g", i, dist.FinalState[i], unpacked.FinalState[i])
		}
	}
	if dist.Net.Bytes >= unpacked.Net.Bytes {
		t.Errorf("packed moved %d bytes, width-1 moved %d; packing saved nothing",
			dist.Net.Bytes, unpacked.Net.Bytes)
	}
}

func TestDistributedPaillierNeedsKey(t *testing.T) {
	values := [][]float64{{1}, {2}}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := RunDistributed(ctx, mustJob(t, values, 3), DriverOptions{
		Aggregation: AggregationPaillier,
	}); !errors.Is(err, ErrBadJob) {
		t.Errorf("missing key: err = %v, want ErrBadJob", err)
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

// halfwayMapper/halfwayReducer form a resume-compatible consensus toy: all
// per-iteration state lives in the broadcast (like the real trainers), so a
// warm restart from a checkpoint continues exactly. Fixed point: the mean of
// the private vectors.
type halfwayMapper struct{ value []float64 }

func (m *halfwayMapper) Contribution(iter int, state []float64) ([]float64, error) {
	out := make([]float64, len(m.value))
	for i := range out {
		out[i] = (m.value[i] + state[i]) / 2
	}
	return out, nil
}

type halfwayReducer struct {
	m    int
	tol  float64
	prev []float64
}

func (r *halfwayReducer) Combine(iter int, sum []float64) ([]float64, bool, error) {
	next := make([]float64, len(sum))
	delta := 0.0
	for i := range sum {
		next[i] = sum[i] / float64(r.m)
		if r.prev != nil {
			d := next[i] - r.prev[i]
			delta += d * d
		} else {
			delta += next[i] * next[i]
		}
	}
	r.prev = next
	return next, r.tol > 0 && delta < r.tol, nil
}

func newHalfwayJob(values [][]float64, maxIter int, tol float64) IterativeJob {
	mappers := make([]IterativeMapper, len(values))
	for i := range values {
		mappers[i] = &halfwayMapper{value: values[i]}
	}
	return IterativeJob{
		Mappers:         mappers,
		Reducer:         &halfwayReducer{m: len(values), tol: tol},
		InitialState:    make([]float64, len(values[0])),
		ContributionDim: len(values[0]),
		MaxIterations:   maxIter,
	}
}

func TestCheckpointResume(t *testing.T) {
	cluster, err := dfs.NewCluster()
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.AddNode("ckpt-node"); err != nil {
		t.Fatal(err)
	}
	cp := &CheckpointPlan{Cluster: cluster, Path: "/jobs/avg.ckpt", Every: 2}

	values := [][]float64{{10, -4}, {20, 6}}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Phase 1: run a capped job (simulated crash after 6 iterations).
	first, err := RunDistributed(ctx, newHalfwayJob(values, 6, 0), DriverOptions{Checkpoint: cp})
	if err != nil {
		t.Fatal(err)
	}
	if first.Converged {
		t.Fatal("capped run should not converge")
	}
	raw, err := cluster.Read(cp.Path)
	if err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	iter, saved, err := decodeStatePayload(raw)
	if err != nil {
		t.Fatal(err)
	}
	if iter != 6 {
		t.Errorf("checkpoint at iteration %d, want 6", iter)
	}
	for i := range saved {
		if math.Abs(saved[i]-first.FinalState[i]) > 1e-12 {
			t.Errorf("checkpoint state[%d] = %g, final %g", i, saved[i], first.FinalState[i])
		}
	}

	// Phase 2: a fresh job with the same plan resumes from the checkpoint
	// and finishes the budget.
	second, err := RunDistributed(ctx, newHalfwayJob(values, 60, 1e-20), DriverOptions{Checkpoint: cp})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Converged {
		t.Fatal("resumed job did not converge")
	}
	want := []float64{15, 1} // mean of the private vectors
	for i := range want {
		if math.Abs(second.FinalState[i]-want[i]) > 1e-3 {
			t.Errorf("resumed state[%d] = %g, want %g", i, second.FinalState[i], want[i])
		}
	}
	// The resumed run skipped the first 6 iterations: total iterations
	// recorded must exceed 6 yet be far below a cold run's... just confirm
	// it reports at least the checkpointed count.
	if second.Iterations <= 6 {
		t.Errorf("resumed run reports %d iterations", second.Iterations)
	}
}

func TestCheckpointPlanValidation(t *testing.T) {
	values := [][]float64{{1}, {2}}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := RunDistributed(ctx, mustJob(t, values, 3), DriverOptions{
		Checkpoint: &CheckpointPlan{},
	}); !errors.Is(err, ErrBadJob) {
		t.Errorf("incomplete checkpoint plan: err = %v, want ErrBadJob", err)
	}
}

func TestCheckpointEveryRespected(t *testing.T) {
	cluster, err := dfs.NewCluster()
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.AddNode("n"); err != nil {
		t.Fatal(err)
	}
	cp := &CheckpointPlan{Cluster: cluster, Path: "/c", Every: 4}
	values := [][]float64{{5}, {7}}
	job, red := newAveragingJob(values, 6)
	red.tol = 0
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := RunDistributed(ctx, job, DriverOptions{Checkpoint: cp}); err != nil {
		t.Fatal(err)
	}
	raw, err := cluster.Read("/c")
	if err != nil {
		t.Fatal(err)
	}
	iter, _, err := decodeStatePayload(raw)
	if err != nil {
		t.Fatal(err)
	}
	// 6 iterations with Every=4: only iteration 4 checkpoints.
	if iter != 4 {
		t.Errorf("checkpoint at iteration %d, want 4", iter)
	}
}

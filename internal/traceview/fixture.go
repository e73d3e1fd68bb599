package traceview

// The chaos fixture: a deterministic in-process training run with one flaky
// mapper, journal enabled, returning the journal dump ppml-trace consumes.
// It runs one flaky link (transport.Chaos.Jitter, 1 ms base, 60 ms tail at
// p=0.25 on the last mapper only) under the strict
// synchronous driver, so every tail draw stalls the round on the flaky
// mapper and its share is provably the one that gates — the ground truth the
// attribution test (and `ppml-trace -fixture`) checks the critical-path
// analysis against.

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"github.com/ppml-go/ppml/internal/mapreduce"
	"github.com/ppml-go/ppml/internal/telemetry"
	"github.com/ppml-go/ppml/internal/transport"
)

// Fixture fault shape: the last mapper's flaky link.
const (
	fixtureJitterBase = time.Millisecond
	fixtureJitterTail = 60 * time.Millisecond
	fixtureJitterProb = 0.25
	fixtureSeed       = 1009
)

// fixtureMapper contributes a fixed vector every round.
type fixtureMapper struct{ value []float64 }

func (m *fixtureMapper) Contribution(iter int, state []float64) ([]float64, error) {
	out := make([]float64, len(m.value))
	copy(out, m.value)
	return out, nil
}

// fixtureReducer averages and never converges, so the round count is exact.
// afterSetup, if set, runs once round 0 has folded.
type fixtureReducer struct {
	m          int
	afterSetup func()
}

func (r *fixtureReducer) Combine(iter int, sum []float64) ([]float64, bool, error) {
	if iter == 0 && r.afterSetup != nil {
		r.afterSetup()
	}
	next := make([]float64, len(sum))
	for i, v := range sum {
		next[i] = v / float64(r.m)
	}
	return next, false, nil
}

// RunChaosFixture runs an m-mapper averaging job for iters synchronous
// rounds under seeded masking with a flaky link on the last mapper, and
// returns the journal dump JSON plus the flaky mapper's name. The fault
// schedule is seeded, so the set of faulted rounds is reproducible. The run
// stops when ctx does, and after two minutes regardless.
func RunChaosFixture(ctx context.Context, m, iters int) ([]byte, string, error) {
	if m < 2 || iters < 1 {
		return nil, "", fmt.Errorf("traceview fixture: need m >= 2, iters >= 1 (got %d, %d)", m, iters)
	}
	flaky := fmt.Sprintf("mapper-%d", m-1)
	reg := telemetry.NewRegistry(telemetry.WithJournal(1 << 14))
	ch := transport.NewChaos(transport.NewInProc())
	defer ch.Close()
	// Every link pays the base latency. The flaky link starts drawing tails
	// only once round 0 has folded: a tail on one of its setup-round seed
	// sends stalls every mapper's first share equally, and which share then
	// lands last is a scheduling tie no attribution can call.
	for i := 0; i < m; i++ {
		ch.Jitter(fmt.Sprintf("mapper-%d", i), fixtureJitterBase, fixtureJitterTail, 0, fixtureSeed+int64(i))
	}
	armFlaky := func() {
		ch.Jitter(flaky, fixtureJitterBase, fixtureJitterTail, fixtureJitterProb, fixtureSeed+int64(m-1))
	}

	const dim = 2
	mappers := make([]mapreduce.IterativeMapper, m)
	for i := range mappers {
		mappers[i] = &fixtureMapper{value: []float64{float64(i + 1), float64(2 * (i + 1))}}
	}
	job := mapreduce.IterativeJob{
		Mappers:         mappers,
		Reducer:         &fixtureReducer{m: m, afterSetup: armFlaky},
		InitialState:    make([]float64, dim),
		ContributionDim: dim,
		MaxIterations:   iters,
	}
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	if _, err := mapreduce.RunDistributed(ctx, job, mapreduce.DriverOptions{
		Network:   ch,
		Telemetry: reg,
	}); err != nil {
		return nil, "", fmt.Errorf("traceview fixture: %w", err)
	}
	var buf bytes.Buffer
	if err := reg.WriteJournal(&buf); err != nil {
		return nil, "", err
	}
	return buf.Bytes(), flaky, nil
}

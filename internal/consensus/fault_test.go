package consensus

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/mapreduce"
)

// flakyMapper injects transient failures in front of a real trainer mapper,
// exercising the retry path together with the mappers' idempotency guarantee.
type flakyMapper struct {
	inner mapreduce.IterativeMapper
	// failEvery makes every failEvery-th call fail once.
	failEvery int64
	calls     atomic.Int64
}

func (f *flakyMapper) Contribution(iter int, state []float64) ([]float64, error) {
	if f.calls.Add(1)%f.failEvery == 0 {
		return nil, errors.New("injected transient fault")
	}
	return f.inner.Contribution(iter, state)
}

func TestHLDistributedSurvivesTransientMapperFaults(t *testing.T) {
	d := dataset.TwoGaussians("g", 160, 4, 3.2, 51)
	train, test := splitAndScale(t, d)
	parts := horizontalParts(t, train, 3, 3)
	cfg, err := Config{C: 10, Rho: 50, MaxIterations: 20}.normalized()
	if err != nil {
		t.Fatal(err)
	}

	// Reference: clean run.
	cleanParts := horizontalParts(t, train, 3, 3)
	clean, _, err := TrainHorizontalLinear(context.Background(), cleanParts, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Faulty run: build the same job by hand so one mapper can be wrapped.
	k := train.Features()
	mappers := make([]mapreduce.IterativeMapper, len(parts))
	for i, p := range parts {
		mp, err := newHLMapper(dataset.NewMemorySource(p), i, len(parts), cfg)
		if err != nil {
			t.Fatal(err)
		}
		mappers[i] = mp
	}
	mappers[1] = &flakyMapper{inner: mappers[1], failEvery: 3}
	red := &meanConsensusReducer{} // the engine announces the cohort
	job := mapreduce.IterativeJob{
		Mappers:         mappers,
		Reducer:         red,
		InitialState:    make([]float64, k+1),
		ContributionDim: k + 1,
		MaxIterations:   cfg.MaxIterations,
	}
	cfgDist := cfg
	cfgDist.Distributed = true
	cfgDist.MapRetries = 3
	res, _, err := runJob(context.Background(), cfgDist, job, parts)
	if err != nil {
		t.Fatal(err)
	}
	faulty := &LinearModel{W: res.FinalState[:k], B: res.FinalState[k]}

	// With retries the flaky cluster computes the same model: the retried
	// Contribution returns the cached result, so the arithmetic is unchanged.
	for j := range clean.W {
		if math.Abs(clean.W[j]-faulty.W[j]) > 1e-5 {
			t.Fatalf("W[%d]: clean %g vs faulty %g", j, clean.W[j], faulty.W[j])
		}
	}
	// And the model still classifies.
	correct := 0
	for i := 0; i < test.Len(); i++ {
		if (faulty.Decision(test.X.Row(i)) >= 0) == (test.Y[i] > 0) {
			correct++
		}
	}
	if ratio := float64(correct) / float64(test.Len()); ratio < 0.9 {
		t.Errorf("faulty-cluster accuracy = %g", ratio)
	}
}

func TestHLDistributedPermanentFaultFailsCleanly(t *testing.T) {
	d := dataset.TwoGaussians("g", 80, 3, 3, 53)
	parts := horizontalParts(t, d, 2, 3)
	cfg, err := Config{C: 10, Rho: 50, MaxIterations: 10}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	mappers := make([]mapreduce.IterativeMapper, len(parts))
	for i, p := range parts {
		mp, err := newHLMapper(dataset.NewMemorySource(p), i, len(parts), cfg)
		if err != nil {
			t.Fatal(err)
		}
		mappers[i] = mp
	}
	mappers[0] = &flakyMapper{inner: mappers[0], failEvery: 1} // always fails
	red := &meanConsensusReducer{}                             // the engine announces the cohort
	job := mapreduce.IterativeJob{
		Mappers:         mappers,
		Reducer:         red,
		InitialState:    make([]float64, d.Features()+1),
		ContributionDim: d.Features() + 1,
		MaxIterations:   cfg.MaxIterations,
	}
	cfgDist := cfg
	cfgDist.Distributed = true
	cfgDist.MapRetries = 2
	if _, _, err := runJob(context.Background(), cfgDist, job, parts); !errors.Is(err, mapreduce.ErrAborted) {
		t.Errorf("permanent fault: err = %v, want ErrAborted", err)
	}
}

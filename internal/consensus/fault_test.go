package consensus

import (
	"context"
	"errors"
	"testing"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/mapreduce"
)

// failingMapper fails every Contribution: a fault that recurs on the same
// state, as any failure of a deterministic Contribution does.
type failingMapper struct{}

func (failingMapper) Contribution(iter int, state []float64) ([]float64, error) {
	return nil, errors.New("injected permanent fault")
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
	mappers[0] = failingMapper{}
	red := &meanConsensusReducer{} // the engine announces the cohort
	job := mapreduce.IterativeJob{
		Mappers:         mappers,
		Reducer:         red,
		InitialState:    make([]float64, d.Features()+1),
		ContributionDim: d.Features() + 1,
		MaxIterations:   cfg.MaxIterations,
	}
	cfgDist := cfg
	cfgDist.Distributed = true
	if _, _, err := runJob(context.Background(), cfgDist, job); !errors.Is(err, mapreduce.ErrAborted) {
		t.Errorf("permanent fault: err = %v, want ErrAborted", err)
	}
}

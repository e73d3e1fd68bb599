package consensus

import (
	"context"
	"fmt"
	"math"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/mapreduce"
)

// SecureStandardize fits a z-score scaler over horizontally partitioned data
// without any learner revealing its local statistics: each learner
// contributes (count, per-feature sum, per-feature sum of squares) through
// one secure-summation round, the Reducer reconstructs only the GLOBAL
// moments, and every learner applies the resulting scaler locally.
//
// This closes a gap the paper leaves implicit: its experiments assume
// standardized features, but centralized standardization would leak each
// learner's feature distribution. One extra MapReduce round with the Section
// V protocol fixes that. The returned scaler can also be applied to held-out
// test data.
func SecureStandardize(ctx context.Context, parts []*dataset.Dataset, cfg Config) (*dataset.Scaler, error) {
	cfg, err := standardizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	k, err := validateHorizontalParts(parts)
	if err != nil {
		return nil, err
	}

	// Contribution layout: [count, sum_0..sum_{k-1}, sumsq_0..sumsq_{k-1}].
	dim := 1 + 2*k
	mappers := make([]mapreduce.IterativeMapper, len(parts))
	for i, p := range parts {
		mappers[i] = &momentsMapper{x: p}
	}
	red := &momentsReducer{}
	job := mapreduce.IterativeJob{
		Mappers:         mappers,
		Reducer:         red,
		InitialState:    []float64{0},
		ContributionDim: dim,
		MaxIterations:   1,
	}
	if _, _, err := runJob(ctx, cfg, job); err != nil {
		return nil, err
	}

	sum := red.sum
	n := sum[0]
	if n <= 1 {
		return nil, fmt.Errorf("%w: %g total samples", ErrBadPartition, n)
	}
	scaler := &dataset.Scaler{Mean: make([]float64, k), Std: make([]float64, k)}
	for j := 0; j < k; j++ {
		mean := sum[1+j] / n
		variance := sum[1+k+j]/n - float64(mean*mean)
		scaler.Mean[j] = mean
		if variance <= 1e-12 {
			scaler.Std[j] = 1
		} else {
			scaler.Std[j] = math.Sqrt(variance)
		}
	}
	// Apply locally: each learner scales its own partition in place.
	for i, p := range parts {
		if err := scaler.Apply(p); err != nil {
			return nil, fmt.Errorf("learner %d: %w", i, err)
		}
	}
	return scaler, nil
}

// standardizeConfig relaxes the trainer validation: standardization has no
// C/ρ and runs exactly one round.
func standardizeConfig(cfg Config) (Config, error) {
	if cfg.C == 0 {
		cfg.C = 1
	}
	if cfg.Rho == 0 {
		cfg.Rho = 1
	}
	cfg.MaxIterations = 1
	cfg.Tol = 0
	cfg.EvalSet = nil
	return cfg.normalized()
}

// momentsMapper emits the learner's local first and second moments.
type momentsMapper struct {
	x *dataset.Dataset
}

// Contribution implements mapreduce.IterativeMapper.
func (mp *momentsMapper) Contribution(iter int, state []float64) ([]float64, error) {
	k := mp.x.Features()
	out := make([]float64, 1+2*k)
	out[0] = float64(mp.x.Len())
	for i := 0; i < mp.x.Len(); i++ {
		row := mp.x.X.Row(i)
		for j, v := range row {
			out[1+j] += v
			out[1+k+j] += float64(v * v)
		}
	}
	return out, nil
}

// momentsReducer stores the securely summed global moments.
type momentsReducer struct {
	sum []float64
}

// Combine implements mapreduce.IterativeReducer. The moments are absolute
// sums, so the folded count is not needed.
func (r *momentsReducer) Combine(iter int, sum []float64, _ int) ([]float64, bool, error) {
	r.sum = append([]float64(nil), sum...)
	return []float64{1}, true, nil
}

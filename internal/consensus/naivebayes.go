package consensus

import (
	"context"
	"fmt"
	"math"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/mapreduce"
)

// NaiveBayesModel is a Gaussian Naive Bayes classifier fit from securely
// aggregated per-class moments. Decision returns the log-posterior-odds
// log P(+1|x) − log P(−1|x).
type NaiveBayesModel struct {
	// PriorPos is P(y = +1).
	PriorPos float64
	// MeanPos/VarPos and MeanNeg/VarNeg are per-feature Gaussian parameters.
	MeanPos, VarPos []float64
	MeanNeg, VarNeg []float64
}

// Decision returns the log-posterior-odds of the positive class.
func (m *NaiveBayesModel) Decision(x []float64) float64 {
	s := math.Log(m.PriorPos) - math.Log(1-m.PriorPos)
	for j, v := range x {
		s += gaussianLogPDF(v, m.MeanPos[j], m.VarPos[j])
		s -= gaussianLogPDF(v, m.MeanNeg[j], m.VarNeg[j])
	}
	return s
}

// Predict returns the class label, +1 or −1.
func (m *NaiveBayesModel) Predict(x []float64) float64 {
	if m.Decision(x) >= 0 {
		return 1
	}
	return -1
}

func gaussianLogPDF(x, mean, variance float64) float64 {
	d := x - mean
	return -0.5*math.Log(2*math.Pi*variance) - d*d/(2*variance)
}

// TrainNaiveBayes fits Gaussian Naive Bayes over horizontally partitioned
// private data in a SINGLE secure-summation round: each learner contributes
// only its per-class (count, per-feature sum, per-feature sum of squares),
// the Reducer reconstructs the global per-class moments, and nothing else
// about any learner's data is revealed.
//
// This realizes, with the paper's cryptographic machinery, the same
// classifier that Agrawal & Srikant's randomization approach (the paper's
// reference [1]) recovers from sanitized data — but exactly, because the
// sufficient statistics of Naive Bayes are sums, the one operation the
// Section V protocol computes privately.
func TrainNaiveBayes(ctx context.Context, parts []*dataset.Dataset, cfg Config) (*NaiveBayesModel, *History, error) {
	cfg, err := standardizeConfig(cfg) // one round; C/ρ unused
	if err != nil {
		return nil, nil, err
	}
	k, err := validateHorizontalParts(parts)
	if err != nil {
		return nil, nil, err
	}

	// Contribution layout: per class c ∈ {+1, −1}:
	// [count_c, sum_c[0..k), sumsq_c[0..k)], classes concatenated.
	per := 1 + 2*k
	mappers := make([]mapreduce.IterativeMapper, len(parts))
	for i, p := range parts {
		mappers[i] = &nbMapper{x: p, per: per}
	}
	red := &momentsReducer{}
	job := mapreduce.IterativeJob{
		Mappers:         mappers,
		Reducer:         red,
		InitialState:    []float64{0},
		ContributionDim: 2 * per,
		MaxIterations:   1,
	}
	_, h, err := runJob(ctx, cfg, job)
	if err != nil {
		return nil, nil, err
	}

	sum := red.sum
	nPos, nNeg := sum[0], sum[per]
	if nPos < 2 || nNeg < 2 {
		return nil, nil, fmt.Errorf("%w: need ≥ 2 samples per class, have %g/%g", ErrBadPartition, nPos, nNeg)
	}
	model := &NaiveBayesModel{
		PriorPos: nPos / (nPos + nNeg),
		MeanPos:  make([]float64, k), VarPos: make([]float64, k),
		MeanNeg: make([]float64, k), VarNeg: make([]float64, k),
	}
	fill := func(mean, variance []float64, base int, n float64) {
		for j := 0; j < k; j++ {
			mu := sum[base+1+j] / n
			va := sum[base+1+k+j]/n - mu*mu
			if va < 1e-9 {
				va = 1e-9
			}
			mean[j] = mu
			variance[j] = va
		}
	}
	fill(model.MeanPos, model.VarPos, 0, nPos)
	fill(model.MeanNeg, model.VarNeg, per, nNeg)
	return model, h, nil
}

// nbMapper emits per-class local moments.
type nbMapper struct {
	x   *dataset.Dataset
	per int
}

// Contribution implements mapreduce.IterativeMapper.
func (mp *nbMapper) Contribution(iter int, state []float64) ([]float64, error) {
	k := mp.x.Features()
	out := make([]float64, 2*mp.per)
	for i := 0; i < mp.x.Len(); i++ {
		base := 0
		if mp.x.Y[i] < 0 {
			base = mp.per
		}
		out[base]++
		row := mp.x.X.Row(i)
		for j, v := range row {
			out[base+1+j] += v
			out[base+1+k+j] += v * v
		}
	}
	return out, nil
}

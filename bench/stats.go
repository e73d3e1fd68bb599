package main

import (
	"math"
	"sort"
)

// summary is the five-number description printed beside every timing.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between order statistics of a sorted
// sample (the "inclusive" method: q=0 is the minimum, q=1 the maximum).
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sorted(xs)
	return summary{
		N: len(s), Min: s[0], Q1: quantile(s, 0.25), Median: quantile(s, 0.5),
		Q3: quantile(s, 0.75), Max: s[len(s)-1],
	}
}

// spread is the interquartile range as a share of the median: the noise
// figure every bound in this benchmark is compared against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// tailPermille are the candidates for a "_tail" metric, highest first, in
// thousandths so that "ten samples beyond" is integer arithmetic.
var tailPermille = []int{999, 990, 950, 900, 750}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer, and the figure is one or two outliers, not a percentile.
const minBeyond = 10

// tail returns the highest percentile of xs that has at least minBeyond
// samples beyond it, falling back to the median when none qualifies (the
// label then says p50, so a reader sees the sample was too small for a tail).
func tail(xs []float64) (value, pct float64) {
	s := sorted(xs)
	for _, pm := range tailPermille {
		if len(s)*(1000-pm)/1000 >= minBeyond {
			return quantile(s, float64(pm)/1000), float64(pm) / 10
		}
	}
	return quantile(s, 0.5), 50
}

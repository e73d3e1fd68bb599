package consensus

import (
	"context"
	"errors"
	"sync"
	"testing"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/kernel"
	"github.com/ppml-go/ppml/internal/linalg"
)

// TestEvalSetShapeRejected: every trainer rejects an eval set the probe
// cannot score — one column short, one column long, or without rows — with
// ErrBadConfig before it trains. A linear model's Decision is a dot product
// over the shorter of its two operands, so without the check the linear
// schemes would score a narrower or wider eval set on truncated features.
func TestEvalSetShapeRejected(t *testing.T) {
	train, test := splitAndScale(t, dataset.TwoGaussians("g", 80, 6, 3, 5))
	k := test.Features()
	widen := func(cols int) *dataset.Dataset {
		x := linalg.NewMatrix(test.Len(), cols)
		for i := 0; i < test.Len(); i++ {
			copy(x.Row(i), test.X.Row(i))
		}
		return &dataset.Dataset{Name: "eval", X: x, Y: test.Y}
	}
	evalSets := map[string]*dataset.Dataset{
		"one column short": widen(k - 1),
		"one column long":  widen(k + 1),
		"no rows":          {Name: "eval", X: linalg.NewMatrix(0, k)},
	}
	hparts := horizontalParts(t, train, 3, 1)
	vparts, cols := verticalParts(t, train, 3, 1)
	schemes := map[string]func(Config) error{
		"HL": func(cfg Config) error {
			_, _, err := TrainHorizontalLinear(context.Background(), hparts, cfg)
			return err
		},
		"HL streamed": func(cfg Config) error {
			srcs := make([]dataset.RowSource, len(hparts))
			for i, p := range hparts {
				srcs[i] = dataset.NewMemorySource(p)
			}
			cfg.ChunkRows = 10
			_, _, err := TrainHorizontalLinearStreamed(context.Background(), srcs, cfg)
			return err
		},
		"HK": func(cfg Config) error {
			_, _, err := TrainHorizontalKernel(context.Background(), hparts, cfg)
			return err
		},
		"VL": func(cfg Config) error {
			_, _, err := TrainVerticalLinear(context.Background(), vparts, cols, cfg)
			return err
		},
		"VK": func(cfg Config) error {
			_, _, err := TrainVerticalKernel(context.Background(), vparts, cols, cfg)
			return err
		},
	}
	for scheme, run := range schemes {
		for name, e := range evalSets {
			cfg := Config{C: 10, Rho: 10, MaxIterations: 2, Landmarks: 8, Kernel: kernel.RBF{Gamma: 0.2}, EvalSet: e}
			if err := run(cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("%s, eval set %s: err = %v, want ErrBadConfig", scheme, name, err)
			}
		}
	}
}

// TestPartialDecisionsSwap: a Reducer adding a learner's partial decisions
// while the mapper writes and swaps in round after round sees one whole
// round's decisions each time, never a mix of two, and rounds never go back.
// Run under -race it also checks that the two sides share nothing unguarded.
func TestPartialDecisionsSwap(t *testing.T) {
	const e, rounds = 64, 2000
	p := newPartials(Config{EvalSet: &dataset.Dataset{X: linalg.NewMatrix(e, 1)}})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the mapper
		defer wg.Done()
		for r := 1; r <= rounds; r++ {
			for i := range p.next {
				p.next[i] = float64(r)
			}
			p.swap()
		}
	}()
	s := make([]float64, e)
	last := 0.0
	for last < rounds {
		sumPartials([]*partialDecisions{p}, 0, s)
		for i, v := range s {
			if v != s[0] {
				t.Fatalf("entry %d reads round %v, entry 0 round %v", i, v, s[0])
			}
		}
		if s[0] < last {
			t.Fatalf("read round %v after round %v", s[0], last)
		}
		last = s[0]
	}
	wg.Wait()
}

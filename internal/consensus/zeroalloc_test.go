package consensus

import (
	"math/rand"
	"testing"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/fixedpoint"
	"github.com/ppml-go/ppml/internal/kernel"
	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/mapreduce"
	"github.com/ppml-go/ppml/internal/partition"
	"github.com/ppml-go/ppml/internal/securesum"
)

// TestSteadyStateRoundZeroAlloc pins the allocation contract of the hot
// training loop: one steady-state consensus round at M = 64 learners — every
// mapper's ridge sub-problem, the seed-derived secure-sum masking of its
// contribution, the ring aggregation, and the reducer's prox step with its
// QP solve — performs zero heap allocations. The first rounds are warm-up
// (they build the mappers' per-chunk blocks and grow the reducer/QP
// scratch); after that, every buffer is owned and reused, exactly like the
// telemetry no-op path pinned by TestDisabledZeroAlloc. The subtests hold
// each scheme's mapper to the same contract on its own.
func TestSteadyStateRoundZeroAlloc(t *testing.T) {
	testMapperRoundZeroAlloc(t)

	const m = 64
	const rows = 96
	rng := rand.New(rand.NewSource(11))
	x := linalg.NewMatrix(rows, m)
	y := make([]float64, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < m; j++ {
			x.Data[i*m+j] = rng.NormFloat64()
		}
		if rng.Intn(2) == 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	full, err := dataset.New("zeroalloc", x, y)
	if err != nil {
		t.Fatal(err)
	}
	parts, _, err := partition.Vertical(full, m, rng)
	if err != nil {
		t.Fatal(err)
	}

	cfg, err := Config{C: 50, Rho: 100, MaxIterations: 1000}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	mappers := make([]*vlMapper, m)
	for i, p := range parts {
		mp, err := newVLMapper(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mappers[i] = mp
	}
	red := newVerticalReducer(y, cfg)
	red.SetRoundWeight(float64(m))
	live := make([]bool, m)
	for i := range live {
		live[i] = true
	}

	// Seed-derived masking sessions with a full pairwise seed exchange, the
	// same setup SetupSeeded performs over the wire.
	codec := fixedpoint.Default()
	const session = 0xfeed
	sessions := make([]*securesum.SeededSession, m)
	for i := range sessions {
		s, err := securesum.NewSeededSession(i, m, rows, session, codec, nil)
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	for i := range sessions {
		for j := range sessions {
			if i == j {
				continue
			}
			seed, err := sessions[i].SeedFor(j)
			if err != nil {
				t.Fatal(err)
			}
			if err := sessions[j].SetPeerSeed(i, seed); err != nil {
				t.Fatal(err)
			}
		}
	}

	state := make([]float64, rows)
	acc := make([]uint64, rows)
	sum := make([]float64, rows)
	iter := 0
	round := func() {
		for j := range acc {
			acc[j] = 0
		}
		for i, mp := range mappers {
			contrib, err := mp.Contribution(iter, state)
			if err != nil {
				t.Fatal(err)
			}
			share, err := sessions[i].RoundShareFor(int32(iter), contrib, live)
			if err != nil {
				t.Fatal(err)
			}
			if err := fixedpoint.AddVec(acc, share); err != nil {
				t.Fatal(err)
			}
		}
		sum, err = codec.DecodeVec(acc, sum)
		if err != nil {
			t.Fatal(err)
		}
		next, _, err := red.Combine(iter, sum)
		if err != nil {
			t.Fatal(err)
		}
		copy(state, next)
		iter++
	}

	for i := 0; i < 3; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Fatalf("steady-state consensus round at M=%d allocated %v times, want 0", m, allocs)
	}

	// The masked rounds above must equal the unmasked aggregate: sum one more
	// round's contributions both ways to prove the masks cancelled. A mapper
	// is called once per round, so each contribution feeds both sums.
	plain := make([]float64, rows)
	for j := range acc {
		acc[j] = 0
	}
	for i, mp := range mappers {
		contrib, err := mp.Contribution(iter, state)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range contrib {
			plain[j] += v
		}
		share, err := sessions[i].RoundShareFor(int32(iter), contrib, live)
		if err != nil {
			t.Fatal(err)
		}
		if err := fixedpoint.AddVec(acc, share); err != nil {
			t.Fatal(err)
		}
	}
	masked, err := codec.DecodeVec(acc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := range plain {
		if diff := masked[j] - plain[j]; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("masked sum[%d] = %g, plain %g", j, masked[j], plain[j])
		}
	}
}

// testMapperRoundZeroAlloc: one steady-state Contribution of each scheme's
// mapper over one chunk allocates nothing, and neither does an HL mapper over
// several chunks once an epoch has visited (and so created the state of)
// every one of them.
func testMapperRoundZeroAlloc(t *testing.T) {
	d := dataset.TwoGaussians("g", 128, 6, 3, 17)
	newCfg := func(chunkRows int) Config {
		cfg, err := Config{C: 10, Rho: 10, Landmarks: 8, Kernel: kernel.RBF{Gamma: 0.5}, ChunkRows: chunkRows}.normalized()
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	must := func(mp mapreduce.IterativeMapper, err error) mapreduce.IterativeMapper {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return mp
	}
	src := dataset.NewMemorySource(d)
	lm, err := newLandmarks(newCfg(0), d.Features(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mp     mapreduce.IterativeMapper
		dim    int
		warmup int // rounds before the measured ones
	}{
		{"hl", must(newHLMapper(src, 0, 2, newCfg(0))), d.Features() + 1, 3},
		{"hk", must(newHKMapper(d, 0, newCfg(0), lm)), lm.xg.Rows + 1, 3},
		{"vl", must(newVLMapper(d, newCfg(0))), d.Len(), 3},
		{"vk", must(newVKMapper(d, newCfg(0))), d.Len(), 3},
		// 8 chunks: rounds 0-7 are the first epoch, and the 6 measured rounds
		// 9-14 and their prefetch hints stay inside the second (drawing an
		// epoch's permutation builds a new rand.Rand).
		{"hl 8 chunks", must(newHLMapper(src, 0, 16, newCfg(16))), d.Features() + 1, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			state := make([]float64, tc.dim)
			iter := 0
			round := func() {
				contrib, err := tc.mp.Contribution(iter, state)
				if err != nil {
					t.Fatal(err)
				}
				for j := range state {
					state[j] = contrib[j] / 2 // a moving consensus, so every round re-solves
				}
				iter++
			}
			for iter < tc.warmup {
				round()
			}
			if allocs := testing.AllocsPerRun(5, round); allocs != 0 {
				t.Errorf("steady-state mapper round allocated %v times, want 0", allocs)
			}
		})
	}
}

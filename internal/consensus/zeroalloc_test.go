package consensus

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/fixedpoint"
	"github.com/ppml-go/ppml/internal/kernel"
	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/mapreduce"
	"github.com/ppml-go/ppml/internal/parallel"
	"github.com/ppml-go/ppml/internal/partition"
	"github.com/ppml-go/ppml/internal/securesum"
	"github.com/ppml-go/ppml/internal/transport"
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
	parts, cols, err := partition.Vertical(full, m, rng)
	if err != nil {
		t.Fatal(err)
	}

	cfg, err := Config{C: 50, Rho: 100, MaxIterations: 1000}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	mappers := make([]*vlMapper, m)
	for i, p := range parts {
		mp, err := newVLMapper(p, cols[i], cfg)
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
// every one of them. With an eval set a mapper also scores its share of the
// probe: VL's Axpy calls allocate nothing, and HK's and VK's kernel.Accumulate
// only its two closures (which the race detector's sync.Pool adds to). VL's
// eval set is large enough (E·k ≥ parallel.DefaultThreshold) that a MulVec
// over it would take the pool, whose dispatch allocates; HK's and VK's stays
// under the threshold, where Accumulate runs sequentially.
func testMapperRoundZeroAlloc(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(2))
	d := dataset.TwoGaussians("g", 128, 6, 3, 17)
	evalSet := dataset.TwoGaussians("e", 40, 6, 3, 18)
	wideEval := dataset.TwoGaussians("e", parallel.DefaultThreshold/6+1, 6, 3, 18)
	newCfg := func(chunkRows int) Config {
		cfg, err := Config{C: 10, Rho: 10, Landmarks: 8, Kernel: kernel.RBF{Gamma: 0.5}, ChunkRows: chunkRows}.normalized()
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	evalCfg, wideCfg := newCfg(0), newCfg(0)
	evalCfg.EvalSet, wideCfg.EvalSet = evalSet, wideEval
	allCols := []int{0, 1, 2, 3, 4, 5}
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
	evalLM, err := newLandmarks(evalCfg, d.Features(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mp     mapreduce.IterativeMapper
		dim    int
		warmup int // rounds before the measured ones
		allocs float64
	}{
		{"hl", must(newHLMapper(src, 0, 2, newCfg(0))), d.Features() + 1, 3, 0},
		{"hk", must(newHKMapper(d, 0, newCfg(0), lm)), lm.xg.Rows + 1, 3, 0},
		{"vl", must(newVLMapper(d, allCols, newCfg(0))), d.Len(), 3, 0},
		{"vk", must(newVKMapper(d, allCols, newCfg(0))), d.Len(), 3, 0},
		// 8 chunks: rounds 0-7 are the first epoch, and the 6 measured rounds
		// 9-14 and their prefetch hints stay inside the second (drawing an
		// epoch's permutation builds a new rand.Rand).
		{"hl 8 chunks", must(newHLMapper(src, 0, 16, newCfg(16))), d.Features() + 1, 9, 0},
		{"hk eval", must(newHKMapper(d, 0, evalCfg, evalLM)), lm.xg.Rows + 1, 3, 2},
		{"vl eval", must(newVLMapper(d, allCols, wideCfg)), d.Len(), 3, 0},
		{"vk eval", must(newVKMapper(d, allCols, evalCfg)), d.Len(), 3, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.allocs > 0 && !poolKeeps() {
				t.Skip("sync.Pool drops Puts at random under the race detector")
			}
			state := make([]float64, tc.dim)
			for j := range state {
				state[j] = 0.5 // from zero VK's α would stay zero, and score nothing
			}
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
			if allocs := testing.AllocsPerRun(5, round); allocs != tc.allocs {
				t.Errorf("steady-state mapper round allocated %v times, want %v", allocs, tc.allocs)
			}
		})
	}
}

// TestTCPRoundAllocations pins a steady-state distributed round over real
// sockets to at most one heap allocation: an HL job over loopback TCP, seeded
// masks, M = 8 and an eval set probed every round, in strict rounds and in
// elastic ones (a straggler deadline, so the ready/roster handshake runs every
// round). Frame bodies come back from the transport's pools, the header and
// payload go out in one writev, each mapper decodes every broadcast into one
// buffer, a connection's names and rosters come from its decode memo, the
// reducer re-arms one receive window per job, and it neither builds a filter
// nor a probe model nor a ready roster per round. The inproc rows hold the
// in-process transport to the same bound: an endpoint delivers the roster it
// delivered last when the next one equals it. The count is the difference
// in the process's allocations between a short and a long job, over the
// rounds between them, so set-up (listeners, dials, the seed exchange, the
// mappers' blocks) cancels out.
func TestTCPRoundAllocations(t *testing.T) {
	if !poolKeeps() {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	train, test := splitAndScale(t, dataset.TwoGaussians("g", 320, 6, 3, 41))
	tcp := func() transport.Network { return transport.NewTCP() }
	inproc := func() transport.Network { return transport.NewInProc() }
	for _, tc := range []struct {
		name      string
		network   func() transport.Network
		straggler time.Duration
	}{
		{"strict", tcp, 0},
		{"elastic", tcp, 5 * time.Second},
		{"inproc_strict", inproc, 0},
		{"inproc_elastic", inproc, 5 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mallocs := func(rounds int) float64 {
				net := tc.network()
				defer net.Close()
				cfg := Config{C: 10, Rho: 50, MaxIterations: rounds, Distributed: true, Network: net, EvalSet: test, StragglerTimeout: tc.straggler}
				parts := horizontalParts(t, train, 8, 3)
				var ms0, ms1 runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&ms0)
				_, h, err := TrainHorizontalLinear(context.Background(), parts, cfg)
				runtime.ReadMemStats(&ms1)
				if err != nil {
					t.Fatal(err)
				}
				if h.Iterations != rounds {
					t.Fatalf("ran %d of %d rounds", h.Iterations, rounds)
				}
				return float64(ms1.Mallocs - ms0.Mallocs)
			}
			const r1, r2 = 50, 450
			mallocs(r1) // the runtime's own first-use allocations
			perRound := (mallocs(r2) - mallocs(r1)) / (r2 - r1)
			t.Logf("%.2f allocations per steady-state round", perRound)
			if perRound > 1 {
				t.Errorf("a steady-state %s round allocated %.2f times, want at most 1", tc.name, perRound)
			}
		})
	}
}

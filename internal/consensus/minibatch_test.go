package consensus

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/dfs"
	"github.com/ppml-go/ppml/internal/eval"
	"github.com/ppml-go/ppml/internal/kernel"
	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/mapreduce"
	"github.com/ppml-go/ppml/internal/partition"
	"github.com/ppml-go/ppml/internal/svm"
)

func TestChunkScheduleCoversEveryChunkPerEpoch(t *testing.T) {
	s := newChunkSchedule(103, 10, 42, 0)
	if s.numChunks != 11 {
		t.Fatalf("numChunks = %d, want 11", s.numChunks)
	}
	for epoch := 0; epoch < 3; epoch++ {
		seen := make(map[int]bool)
		rowsSeen := 0
		for pos := 0; pos < s.numChunks; pos++ {
			idx, lo, hi := s.chunk(epoch*s.numChunks + pos)
			if seen[idx] {
				t.Fatalf("epoch %d revisits chunk %d", epoch, idx)
			}
			seen[idx] = true
			if lo != idx*10 || hi > 103 || hi-lo < 1 || hi-lo > 10 {
				t.Fatalf("chunk %d has range [%d, %d)", idx, lo, hi)
			}
			rowsSeen += hi - lo
		}
		if rowsSeen != 103 {
			t.Fatalf("epoch %d covers %d rows, want 103", epoch, rowsSeen)
		}
	}
}

// TestChunkScheduleAllRows: a chunk size of zero or less, or of at least the
// row count, is one chunk covering every row on every iteration.
func TestChunkScheduleAllRows(t *testing.T) {
	for _, chunkRows := range []int{0, -3, 103, 110, 1 << 20} {
		if n := numChunksFor(103, chunkRows); n != 1 {
			t.Errorf("numChunksFor(103, %d) = %d, want 1", chunkRows, n)
		}
		s := newChunkSchedule(103, chunkRows, 42, 0)
		for _, iter := range []int{0, 1, 7} {
			if idx, lo, hi := s.chunk(iter); idx != 0 || lo != 0 || hi != 103 {
				t.Errorf("chunkRows %d, iter %d: chunk %d [%d, %d), want 0 [0, 103)", chunkRows, iter, idx, lo, hi)
			}
		}
	}
}

func TestChunkScheduleDeterministicAndOrderFree(t *testing.T) {
	// Two schedules with the same (seed, id) must agree even when one is
	// queried out of order — a prefetch hint for
	// iter+1 crosses epoch boundaries freely.
	a := newChunkSchedule(96, 8, 7, 3)
	b := newChunkSchedule(96, 8, 7, 3)
	iters := []int{0, 25, 1, 11, 47, 2, 36, 12, 0, 35}
	got := make([][3]int, len(iters))
	for i, it := range iters {
		idx, lo, hi := a.chunk(it)
		got[i] = [3]int{idx, lo, hi}
	}
	for i := len(iters) - 1; i >= 0; i-- {
		idx, lo, hi := b.chunk(iters[i])
		if got[i] != [3]int{idx, lo, hi} {
			t.Fatalf("iter %d: forward (%v) vs reverse (%d,%d,%d)", iters[i], got[i], idx, lo, hi)
		}
	}
	// Different ids and different epochs must reshuffle (with overwhelming
	// probability for 12 chunks).
	c := newChunkSchedule(96, 8, 7, 4)
	sameID, sameEpoch := true, true
	for pos := 0; pos < a.numChunks; pos++ {
		ai, _, _ := a.chunk(pos)
		ci, _, _ := c.chunk(pos)
		if ai != ci {
			sameID = false
		}
		e0, _, _ := b.chunk(pos)
		e1, _, _ := b.chunk(a.numChunks + pos)
		if e0 != e1 {
			sameEpoch = false
		}
	}
	if sameID {
		t.Error("schedules with different ids are identical")
	}
	if sameEpoch {
		t.Error("consecutive epochs have identical permutations")
	}
}

func TestMinibatchConfigValidation(t *testing.T) {
	d := dataset.TwoGaussians("g", 60, 4, 3, 1)
	parts := horizontalParts(t, d, 2, 1)
	if _, _, err := TrainHorizontalLinear(context.Background(), parts, Config{
		C: 1, Rho: 1, ChunkRows: -1,
	}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative ChunkRows: err = %v, want ErrBadConfig", err)
	}
	// A Tol no residual can fall below would silently run the budget.
	for _, tol := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1e-6} {
		if _, _, err := TrainHorizontalLinear(context.Background(), parts, Config{
			C: 1, Rho: 1, Tol: tol,
		}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("Tol %g: err = %v, want ErrBadConfig", tol, err)
		}
	}
	if _, _, err := TrainHorizontalLinearStreamed(context.Background(), nil, Config{
		C: 1, Rho: 1,
	}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("streamed without ChunkRows: err = %v, want ErrBadConfig", err)
	}
}

// chunkFixture is one scheme's trainer over a fixed split and cohort, with
// ChunkRows and the round budget left open. Every call partitions afresh, so
// runs share no state.
type chunkFixture struct {
	name  string
	rows  int // the longest schedule's row count: N_m (HL, HK) or N (VL, VK)
	train *dataset.Dataset
	test  *dataset.Dataset
	run   func(t *testing.T, chunkRows, rounds int) (eval.Classifier, *History)
}

func chunkFixtures(t *testing.T) map[string]chunkFixture {
	t.Helper()
	ctx := context.Background()
	out := make(map[string]chunkFixture)
	add := func(name string, rows int, train, test *dataset.Dataset, cfg Config, run func(*dataset.Dataset, Config) (eval.Classifier, *History, error)) {
		out[name] = chunkFixture{name: name, rows: rows, train: train, test: test,
			run: func(t *testing.T, chunkRows, rounds int) (eval.Classifier, *History) {
				t.Helper()
				cfg := cfg
				cfg.ChunkRows, cfg.MaxIterations, cfg.EvalSet = chunkRows, rounds, test
				model, h, err := run(train, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return model, h
			}}
	}
	longest := func(parts []*dataset.Dataset) (rows int) {
		for _, p := range parts {
			rows = max(rows, p.Len())
		}
		return rows
	}

	train, test := splitAndScale(t, dataset.SyntheticCancer(400, 3))
	add("hl", longest(horizontalParts(t, train, 4, 5)), train, test, Config{C: 50, Rho: 100},
		func(train *dataset.Dataset, cfg Config) (eval.Classifier, *History, error) {
			return TrainHorizontalLinear(ctx, horizontalParts(t, train, 4, 5), cfg)
		})

	train, test, err := nonlinearRings(240, 3).Split(0.5)
	if err != nil {
		t.Fatal(err)
	}
	add("hk", longest(horizontalParts(t, train, 3, 7)), train, test, Config{C: 50, Rho: 10, Landmarks: 25, Kernel: kernel.RBF{Gamma: 1}},
		func(train *dataset.Dataset, cfg Config) (eval.Classifier, *History, error) {
			return TrainHorizontalKernel(ctx, horizontalParts(t, train, 3, 7), cfg)
		})

	train, test = splitAndScale(t, dataset.TwoGaussians("g", 300, 8, 3.2, 21))
	add("vl", train.Len(), train, test, Config{C: 50, Rho: 100},
		func(train *dataset.Dataset, cfg Config) (eval.Classifier, *History, error) {
			parts, cols := verticalParts(t, train, 4, 3)
			return TrainVerticalLinear(ctx, parts, cols, cfg)
		})

	train, test, err = nonlinearRings(300, 31).Split(0.5)
	if err != nil {
		t.Fatal(err)
	}
	add("vk", train.Len(), train, test, Config{C: 50, Rho: 20, Kernel: kernel.RBF{Gamma: 1}},
		func(train *dataset.Dataset, cfg Config) (eval.Classifier, *History, error) {
			parts, cols := verticalParts(t, train, 2, 5)
			return TrainVerticalKernel(ctx, parts, cols, cfg)
		})
	return out
}

// accuracyOf scores a trained model on the fixture's held-out half.
func (fx chunkFixture) accuracyOf(t *testing.T, model eval.Classifier) float64 {
	t.Helper()
	acc, err := eval.ClassifierAccuracy(model, fx.test)
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

// TestOneChunkIsFullBatch: full batch is not a second algorithm but the
// schedule with one chunk. Whatever ChunkRows says — zero, exactly the rows,
// a little more, far more — a schedule of one chunk trains the same model
// through the same iterates, bit for bit, in all four schemes.
func TestOneChunkIsFullBatch(t *testing.T) {
	const rounds = 12
	for _, fx := range chunkFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			full, hFull := fx.run(t, 0, rounds)
			for _, chunkRows := range []int{fx.rows, fx.rows + 7, 1 << 20} {
				model, h := fx.run(t, chunkRows, rounds)
				if !reflect.DeepEqual(model, full) {
					t.Errorf("ChunkRows = %d: model differs from ChunkRows = 0", chunkRows)
				}
				if !reflect.DeepEqual(h.DeltaZSq, hFull.DeltaZSq) {
					t.Errorf("ChunkRows = %d: Δz² history %v, want %v", chunkRows, h.DeltaZSq, hFull.DeltaZSq)
				}
				if !reflect.DeepEqual(h.Accuracy, hFull.Accuracy) {
					t.Errorf("ChunkRows = %d: accuracy history %v, want %v", chunkRows, h.Accuracy, hFull.Accuracy)
				}
			}
		})
	}
}

func TestHLMinibatchMatchesFullBatch(t *testing.T) {
	fx := chunkFixtures(t)["hl"]
	full, _ := fx.run(t, 0, 60)
	mini, h := fx.run(t, 25, 160)
	fw := linalg.CopyVec(full.(*LinearModel).W)
	mw := linalg.CopyVec(mini.(*LinearModel).W)
	linalg.Scale(1/linalg.Norm2(fw), fw)
	linalg.Scale(1/linalg.Norm2(mw), mw)
	if cos := linalg.Dot(fw, mw); cos < 0.98 {
		t.Errorf("minibatch weight direction cosine = %g, want ≥ 0.98", cos)
	}
	if accF, accM := fx.accuracyOf(t, full), fx.accuracyOf(t, mini); accM < accF-0.03 {
		t.Errorf("minibatch accuracy %.3f vs full-batch %.3f", accM, accF)
	}
	// Minibatch iterates hover in a noise ball around the full-batch fixed
	// point (each round solves a different chunk), so expect decay but not
	// the full-batch orders-of-magnitude collapse.
	if h.DeltaZSq[len(h.DeltaZSq)-1] > h.DeltaZSq[0]/5 {
		t.Errorf("minibatch Δz² did not decay: %g → %g", h.DeltaZSq[0], h.DeltaZSq[len(h.DeltaZSq)-1])
	}
}

func TestHKMinibatchSolvesNonlinearTask(t *testing.T) {
	fx := chunkFixtures(t)["hk"]
	model, _ := fx.run(t, 12, 80)
	if acc := fx.accuracyOf(t, model); acc < 0.9 {
		t.Errorf("minibatch RBF consensus on rings accuracy = %g, want ≥ 0.9", acc)
	}
}

func TestVLMinibatchMatchesFullBatch(t *testing.T) {
	fx := chunkFixtures(t)["vl"]
	central, err := svm.Train(fx.train.X, fx.train.Y, svm.Params{C: 50})
	if err != nil {
		t.Fatal(err)
	}
	model, h := fx.run(t, 30, 300)
	if acc, accC := fx.accuracyOf(t, model), fx.accuracyOf(t, central); acc < accC-0.05 {
		t.Errorf("VL minibatch accuracy %.3f vs centralized %.3f", acc, accC)
	}
	if h.DeltaZSq[len(h.DeltaZSq)-1] > h.DeltaZSq[0]/10 {
		t.Errorf("VL minibatch Δz² did not decay: %g → %g", h.DeltaZSq[0], h.DeltaZSq[len(h.DeltaZSq)-1])
	}
}

func TestVKMinibatchSolvesNonlinearTask(t *testing.T) {
	fx := chunkFixtures(t)["vk"]
	model, _ := fx.run(t, 30, 180)
	if acc := fx.accuracyOf(t, model); acc < 0.85 {
		t.Errorf("VK minibatch on rings accuracy = %g, want ≥ 0.85", acc)
	}
}

func TestHLMinibatchBitReproducible(t *testing.T) {
	d := dataset.TwoGaussians("g", 200, 5, 3, 11)
	train, _ := splitAndScale(t, d)
	cfg := Config{C: 10, Rho: 50, MaxIterations: 40, ChunkRows: 16, Seed: 99}
	a, _, err := TrainHorizontalLinear(context.Background(), horizontalParts(t, train, 3, 9), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := TrainHorizontalLinear(context.Background(), horizontalParts(t, train, 3, 9), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.W {
		if a.W[j] != b.W[j] {
			t.Fatalf("W[%d] differs across identical runs: %v vs %v", j, a.W[j], b.W[j])
		}
	}
	if a.B != b.B {
		t.Fatalf("B differs across identical runs: %v vs %v", a.B, b.B)
	}
}

// streamedSetup writes each partition to the simulated HDFS in the row format
// and opens a streaming source per learner.
func streamedSetup(t *testing.T, parts []*dataset.Dataset) []dataset.RowSource {
	t.Helper()
	c, err := dfs.NewCluster(dfs.WithBlockSize(1 << 14))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"n0", "n1", "n2"} {
		if err := c.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	srcs := make([]dataset.RowSource, len(parts))
	for i, p := range parts {
		path := "/train/part-" + string(rune('a'+i))
		if err := dataset.WriteDFS(c, path, p, "n0"); err != nil {
			t.Fatal(err)
		}
		src, err := dataset.OpenDFS(c, path)
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = src
	}
	return srcs
}

func TestHLStreamedBitMatchesInMemoryMinibatch(t *testing.T) {
	// The streamed trainer must be numerically indistinguishable from the
	// in-memory minibatch trainer: the row format round-trips float64 bits
	// and both paths share the chunked engine and schedule.
	d := dataset.TwoGaussians("g", 240, 6, 3, 13)
	train, _ := splitAndScale(t, d)
	parts := horizontalParts(t, train, 3, 17)
	cfg := Config{C: 10, Rho: 50, MaxIterations: 45, ChunkRows: 16}

	mem, _, err := TrainHorizontalLinear(context.Background(), parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	streamed, h, err := TrainHorizontalLinearStreamed(context.Background(), streamedSetup(t, parts), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h.Iterations == 0 {
		t.Fatal("streamed run recorded no iterations")
	}
	for j := range mem.W {
		if mem.W[j] != streamed.W[j] {
			t.Fatalf("W[%d]: in-memory %v vs streamed %v", j, mem.W[j], streamed.W[j])
		}
	}
	if mem.B != streamed.B {
		t.Fatalf("B: in-memory %v vs streamed %v", mem.B, streamed.B)
	}
}

func TestHLStreamedLabelValidation(t *testing.T) {
	d := dataset.TwoGaussians("g", 64, 4, 3, 19)
	d.Y[10] = 0.5 // not ±1; only detectable at first chunk use
	srcs := streamedSetup(t, []*dataset.Dataset{d})
	_, _, err := TrainHorizontalLinearStreamed(context.Background(), srcs, Config{
		C: 1, Rho: 1, MaxIterations: 8, ChunkRows: 8,
	})
	// The engine deliberately flattens mapper errors into ErrAborted (a
	// remote learner's failure detail is not a sentinel); the chunk mapper's
	// message must name the row but never echo the label value.
	if !errors.Is(err, mapreduce.ErrAborted) {
		t.Fatalf("bad streamed label: err = %v, want ErrAborted", err)
	}
	if !strings.Contains(err.Error(), "label is not ±1") || strings.Contains(err.Error(), "0.5") {
		t.Errorf("unexpected error detail: %v", err)
	}
}

// shapeSource is a RowSource with a shape and no rows behind it: enough for
// the trainer's up-front validation, which must refuse before reading.
type shapeSource struct{ rows, features int }

func (s shapeSource) Rows() int     { return s.rows }
func (s shapeSource) Features() int { return s.features }
func (s shapeSource) ReadRows(lo, hi int, x *linalg.Matrix, y []float64) error {
	return errors.New("shapeSource has no rows to read")
}

func TestHLStreamedSourceValidation(t *testing.T) {
	good := streamedSetup(t, []*dataset.Dataset{dataset.TwoGaussians("g", 64, 4, 3, 19)})[0]
	for _, tc := range []struct {
		name string
		srcs []dataset.RowSource
	}{
		{"no sources", nil},
		{"nil first source", []dataset.RowSource{nil, good}},
		{"nil later source", []dataset.RowSource{good, nil}},
		{"zero rows", []dataset.RowSource{good, shapeSource{rows: 0, features: 4}}},
		{"zero features", []dataset.RowSource{shapeSource{rows: 64, features: 0}}},
		{"mismatched width", []dataset.RowSource{good, shapeSource{rows: 64, features: 5}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := TrainHorizontalLinearStreamed(context.Background(), tc.srcs, Config{
				C: 1, Rho: 1, MaxIterations: 2, ChunkRows: 8,
			})
			if !errors.Is(err, ErrBadPartition) {
				t.Errorf("err = %v, want ErrBadPartition", err)
			}
		})
	}
}

func TestHLStreamedOutOfCore(t *testing.T) {
	// The headline out-of-core claim: a learner trains on a partition whose
	// in-memory footprint is ≥ 10× its persistent working set. The partition
	// lives in the simulated HDFS; the mapper holds only chunk-sized buffers,
	// so its resident heap must stay below a tenth of the partition bytes.
	if testing.Short() {
		t.Skip("out-of-core memory accounting is slow")
	}
	const (
		rows      = 20000
		features  = 64
		chunkRows = 128
	)
	d := dataset.TwoGaussians("ooc", rows, features, 4, 7)
	partitionBytes := int64(rows) * int64(features+1) * 8

	c, err := dfs.NewCluster()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddNode("n0"); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteDFS(c, "/big", d, "n0"); err != nil {
		t.Fatal(err)
	}
	src, err := dataset.OpenDFS(c, "/big")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := Config{C: 1, Rho: 10, ChunkRows: chunkRows}.normalized()
	if err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	mp, err := newHLMapper(src, 0, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	state := make([]float64, features+1)
	// One full epoch so every per-chunk warm start is materialized — the
	// mapper's steady-state footprint, not its freshly-built one.
	for iter := 0; iter < mp.sched.numChunks; iter++ {
		if _, err := mp.Contribution(iter, state); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	mp.close()

	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	budget := partitionBytes / 10
	if growth > budget {
		t.Errorf("mapper working set grew by %d bytes; budget %d (partition %d)", growth, budget, partitionBytes)
	}
	runtime.KeepAlive(mp)

	// The streamed model must still separate the data.
	model, _, err := TrainHorizontalLinearStreamed(context.Background(), []dataset.RowSource{src}, Config{
		C: 1, Rho: 10, MaxIterations: 3 * (rows + chunkRows - 1) / chunkRows, ChunkRows: chunkRows,
	})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := eval.ClassifierAccuracy(model, d)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Errorf("out-of-core accuracy = %g, want ≥ 0.95 on separable data", acc)
	}
}

// BenchmarkMinibatchRound times a short local horizontal-linear training run
// full-batch versus chunked: the per-round local-solve shrink minibatch
// chunks buy.
func BenchmarkMinibatchRound(b *testing.B) {
	data := dataset.SyntheticCancer(2400, 1)
	for _, bc := range []struct {
		name      string
		chunkRows int
	}{
		{"fullbatch", 0},
		{"chunk24", 24},
	} {
		b.Run(bc.name, func(b *testing.B) {
			parts, _, err := partition.Horizontal(data, 4, rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			cfg := Config{C: 1, Rho: 50, MaxIterations: 5, Seed: 1, ChunkRows: bc.chunkRows}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := TrainHorizontalLinear(context.Background(), parts, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

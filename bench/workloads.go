package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/ppml-go/ppml/internal/consensus"
	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/dfs"
	"github.com/ppml-go/ppml/internal/kernel"
	"github.com/ppml-go/ppml/internal/mapreduce"
	"github.com/ppml-go/ppml/internal/partition"
	"github.com/ppml-go/ppml/internal/transport"
)

// The paper's Section VI parameters, shared by every workload. The consensus
// seed (landmarks, chunk schedules) and the seed of the generators and the
// partitioner are fixed; -seed perturbs what they produce (see jitter) and
// never reaches the program under test.
const (
	paramC         = 50
	paramRho       = 100
	paramLandmarks = 30
	consensusSeed  = 1
	dataSeed       = 1
)

type scheme string

const (
	schemeHL         scheme = "HL"
	schemeHLStreamed scheme = "HL-streamed"
	schemeHK         scheme = "HK"
	schemeVL         scheme = "VL"
	schemeVK         scheme = "VK"
)

// workload is one frozen benchmark job. Shapes come from ISSUE 12; rounds
// and the gates were calibrated once on the 2-core reference box so a
// training call lasts 0.6–2 s, and are frozen here (BENCHMARK.json's schema
// has no room for them). Changing any field is a benchmark change: -diff
// refuses to compare files whose definitions differ.
type workload struct {
	Name      string  `json:"name"`
	Why       string  `json:"why"`
	Scheme    scheme  `json:"scheme"`
	Generator string  `json:"generator"`
	Rows      int     `json:"rows"` // generated rows, before the 50/50 split
	M         int     `json:"m"`
	TCP       bool    `json:"tcp"`
	Elastic   bool    `json:"elastic"`
	ChunkRows int     `json:"chunk_rows"`
	Rounds    int     `json:"rounds"`
	AccFloor  float64 `json:"acc_floor"`  // quality gate: final accuracy ≥ this (central − 0.03 at seed 1)
	AccTarget float64 `json:"acc_target"` // rounds_to_acc counts rounds to this accuracy
	DzCeiling float64 `json:"dz_ceiling"` // quality gate: last ‖Δz‖² ≤ this
}

// elasticDeadline is long enough that no mapper is ever demoted on a healthy
// box: the elastic workload measures the ready/roster phase, not recovery.
const elasticDeadline = 5 * time.Second

var workloads = []workload{
	{
		Name: "hl_rows", Scheme: schemeHL, Generator: "higgs", Rows: 1600, M: 4, Rounds: 50,
		AccFloor: 0.655, AccTarget: 0.62, DzCeiling: 1e-3,
		Why: "HL on dense N_m x N_m Grams: the local box-QP is ~all of the time, so qp/linalg work shows here and wire/mask work must not",
	},
	{
		Name: "hl_chunks_dfs", Scheme: schemeHLStreamed, Generator: "higgs", Rows: 8000, M: 4, ChunkRows: 100, Rounds: 350,
		AccFloor: 0.65, AccTarget: 0.675, DzCeiling: 1e-3,
		Why: "streamed HL over dfs: thousands of small warm chunk solves with a Gram rebuilt per chunk, the only user of Prefetcher + dfs ReadAt",
	},
	{
		Name: "hk_landmarks", Scheme: schemeHK, Generator: "ocr", Rows: 2000, M: 4, Rounds: 18,
		AccFloor: 0.96, AccTarget: 0.95, DzCeiling: 1e-3,
		Why: "HK with 30 landmarks: kernel Gram, cross-kernel and landmark-corrected QP are its set-up; a round is mostly the reducer scoring the kernel model on 1,000 eval rows (measured, not planned)",
	},
	{
		Name: "vk_scores", Scheme: schemeVK, Generator: "ocr", Rows: 1200, M: 4, Rounds: 20,
		AccFloor: 0.95, AccTarget: 0.95, DzCeiling: 1e-1,
		Why: "VK kernel ridge per node (Cholesky once, a solve per round), N-float shares at small M, the largest footprint; a round is mostly the reducer scoring the kernel model (measured, not planned)",
	},
	{
		Name: "vl_cohort_tcp", Scheme: schemeVL, Generator: "ocr", Rows: 8000, M: 8, TCP: true, Rounds: 190,
		AccFloor: 0.97, AccTarget: 0.90, DzCeiling: 1,
		Why: "VL over loopback TCP with 4,000-float shares from 8 learners: mask expansion, fixed-point encode and ~0.5 MB/round dominate, the solve is negligible",
	},
	{
		Name: "hl_rounds_tcp", Scheme: schemeHL, Generator: "cancer", Rows: 569, M: 8, TCP: true, Rounds: 4000,
		AccFloor: 0.90, AccTarget: 0.93, DzCeiling: 1e-9,
		Why: "HL over loopback TCP with 10-float shares and ~35-row solves: per-round driver, frame and syscall overhead is most of the time",
	},
	{
		Name: "hl_rounds_elastic_tcp", Scheme: schemeHL, Generator: "cancer", Rows: 569, M: 8, TCP: true, Elastic: true, Rounds: 4000,
		AccFloor: 0.90, AccTarget: 0.93, DzCeiling: 1e-9,
		Why: "hl_rounds_tcp under the elastic driver with no faults: the same mapreduce layer paying the ready/roster phase every round",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// smoke shrinks a workload to the tier-1 test shape: ≤ 200 rows, 3 rounds,
// gates off. Every code path of the full shape still runs.
func (w workload) smoke() workload {
	if w.Rows > 200 {
		w.Rows = 200
	}
	if w.ChunkRows > 0 {
		w.ChunkRows = 10
	}
	w.Rounds = 3
	w.AccFloor, w.AccTarget, w.DzCeiling = 0, 0.5, 1e300
	return w
}

func generate(name string, rows int, seed int64) (*dataset.Dataset, error) {
	switch name {
	case "higgs":
		return dataset.SyntheticHiggs(rows, seed), nil
	case "ocr":
		return dataset.SyntheticOCR(rows, seed), nil
	case "cancer":
		return dataset.SyntheticCancer(rows, seed), nil
	}
	return nil, fmt.Errorf("bench: unknown generator %q", name)
}

// inputs is everything a training call reads, built from -seed alone.
type inputs struct {
	w      workload
	pooled *dataset.Dataset // pooled, standardized (the central baseline trains on it)
	eval   *dataset.Dataset
	parts  []*dataset.Dataset
	cols   [][]int             // vertical schemes only
	srcs   []dataset.RowSource // hl_chunks_dfs only

	// stages are prepare's own timings, reported by the traced pass.
	stages struct{ generate, standardize, split time.Duration }
}

// jitter is the size of the seed-driven perturbation, in standard deviations
// of a standardized feature. It is deliberately tiny. The cost of the local
// dual solves depends on the data far more than on the code: resampling the
// data set or the partition per seed moved hl_rows between 1.7M and 3.8M QP
// coordinate steps (1.6 s to 3.4 s), a 1e-3 jitter still moved it by 6 %,
// 1e-6 moves it by 0.1 %. So -seed makes every input value and every model
// hash differ between seeds while the work stays that of the frozen workload.
const jitter = 1e-6

func perturb(d *dataset.Dataset, rng *rand.Rand) {
	for i := range d.X.Data {
		d.X.Data[i] += jitter * rng.NormFloat64()
	}
}

// prepare generates the data set, splits it 50/50, standardizes on training
// statistics, perturbs by seed, partitions across M learners and, for the
// streamed workload, writes every partition to a 4-node dfs cluster and
// opens it for range reads. It notes how long each stage took.
func prepare(w workload, seed int64) (*inputs, error) {
	fail := func(err error) (*inputs, error) { return nil, fmt.Errorf("bench: %s: %w", w.Name, err) }
	in := &inputs{w: w}
	t0 := time.Now()
	d, err := generate(w.Generator, w.Rows, dataSeed)
	if err != nil {
		return nil, err
	}
	in.stages.generate = time.Since(t0)
	train, test, err := d.Split(0.5)
	if err != nil {
		return fail(err)
	}
	t0 = time.Now()
	sc := dataset.FitScaler(train)
	if err := sc.Apply(train); err != nil {
		return fail(err)
	}
	if err := sc.Apply(test); err != nil {
		return fail(err)
	}
	in.stages.standardize = time.Since(t0)
	noise := rand.New(rand.NewSource(seed))
	perturb(train, noise)
	perturb(test, noise)
	in.pooled, in.eval = train, test
	rng := rand.New(rand.NewSource(dataSeed))
	t0 = time.Now()
	switch w.Scheme {
	case schemeVL, schemeVK:
		in.parts, in.cols, err = partition.Vertical(train, w.M, rng)
	default:
		in.parts, _, err = partition.Horizontal(train, w.M, rng)
	}
	if err != nil {
		return fail(err)
	}
	in.stages.split = time.Since(t0)
	if w.Scheme == schemeHLStreamed {
		if in.srcs, err = writePartitions(in.parts); err != nil {
			return fail(err)
		}
	}
	return in, nil
}

const (
	dfsNodes     = 4
	dfsBlockSize = 64 << 10
)

func newDFSCluster() (*dfs.Cluster, error) {
	c, err := dfs.NewCluster(dfs.WithBlockSize(dfsBlockSize), dfs.WithReplication(2))
	if err != nil {
		return nil, err
	}
	for i := 0; i < dfsNodes; i++ {
		if err := c.AddNode(fmt.Sprintf("dn%d", i)); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func writePartitions(parts []*dataset.Dataset) ([]dataset.RowSource, error) {
	c, err := newDFSCluster()
	if err != nil {
		return nil, err
	}
	srcs := make([]dataset.RowSource, len(parts))
	for i, p := range parts {
		path := fmt.Sprintf("/parts/%d.rows", i)
		if err := dataset.WriteDFS(c, path, p, fmt.Sprintf("dn%d", i%dfsNodes)); err != nil {
			return nil, err
		}
		if srcs[i], err = dataset.OpenDFS(c, path); err != nil {
			return nil, err
		}
	}
	return srcs, nil
}

// kernel is the paper's RBF with γ = 1/k over the full feature width.
func (in *inputs) kernel() kernel.Kernel {
	return kernel.RBF{Gamma: 1 / float64(in.eval.Features())}
}

// rung selects how much of the stack a training call exercises: the
// workload's own configuration, or one of the ladder's stripped-down rungs.
type rung int

const (
	rungOwn       rung = iota // the workload as defined
	rungLocal                 // Distributed=false: solve + fold only
	rungPlain                 // distributed, AggregationPlain, own transport
	rungTransport             // own config on the other transport (in-process <-> TCP)
)

// decider is the part of every consensus model the benchmark reads.
type decider interface {
	Decision(x []float64) float64
	Predict(x []float64) float64
}

// trained is what one training call returns to the harness.
type trained struct {
	model decider
	hist  *consensus.History
}

// train runs one consensus.Train* call of the workload at the given round
// budget. wrap, when non-nil, wraps the call's fresh network (the tap).
func (in *inputs) train(ctx context.Context, rounds int, r rung, wrap func(transport.Network) transport.Network) (trained, error) {
	w := in.w
	cfg := consensus.Config{
		C: paramC, Rho: paramRho, MaxIterations: rounds,
		Landmarks: paramLandmarks, Seed: consensusSeed,
		Kernel:    in.kernel(),
		ChunkRows: w.ChunkRows,
		EvalSet:   in.eval,
	}
	if r != rungLocal {
		cfg.Distributed = true
		cfg.Aggregation = mapreduce.AggregationMasked
		if r == rungPlain {
			cfg.Aggregation = mapreduce.AggregationPlain
		}
		if w.Elastic {
			cfg.StragglerTimeout = elasticDeadline
		}
		tcp := w.TCP != (r == rungTransport)
		var net transport.Network = transport.NewInProc()
		if tcp {
			net = transport.NewTCP()
		}
		// A fresh network per call: History.Net is then the call's own
		// traffic, and listener boot + dial is paid (and timed) every call.
		defer net.Close()
		if wrap != nil {
			net = wrap(net)
		}
		cfg.Network = net
	}
	var out trained
	var err error
	switch w.Scheme {
	case schemeHL:
		out.model, out.hist, err = wrapModel(consensus.TrainHorizontalLinear(ctx, in.parts, cfg))
	case schemeHLStreamed:
		out.model, out.hist, err = wrapModel(consensus.TrainHorizontalLinearStreamed(ctx, in.srcs, cfg))
	case schemeHK:
		out.model, out.hist, err = wrapModel(consensus.TrainHorizontalKernel(ctx, in.parts, cfg))
	case schemeVL:
		out.model, out.hist, err = wrapModel(consensus.TrainVerticalLinear(ctx, in.parts, in.cols, cfg))
	case schemeVK:
		out.model, out.hist, err = wrapModel(consensus.TrainVerticalKernel(ctx, in.parts, in.cols, cfg))
	}
	if err != nil {
		return trained{}, fmt.Errorf("bench: %s: %w", w.Name, err)
	}
	return out, nil
}

// wrapModel erases the concrete model type of the four trainers.
func wrapModel[M decider](m M, h *consensus.History, err error) (decider, *consensus.History, error) {
	return m, h, err
}

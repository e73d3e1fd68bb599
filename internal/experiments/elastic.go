package experiments

// Elastic-roster benchmark: the measurements behind BENCH_elastic.json. At
// M=16 learners, one mapper turns into a straggler halfway through training
// (its Contribution gains an injected delay) and the same job runs under the
// two recovery policies the ROADMAP contrasts:
//
//   - demote-and-continue: a StragglerTimeout demotes the straggler for
//     the rounds it misses, the Reducer waits for it again only in the
//     rounds d+1, d+2, d+4, … after its demotion at round d, and the
//     survivors keep every round of progress already made;
//   - abort-and-restart: the pre-elastic policy, emulated faithfully with
//     MinQuorum = M — the first round the straggler misses fails the job with
//     ErrQuorum, the partial progress is thrown away, and training restarts
//     from scratch on the surviving M−1 learners.
//
// Every round carries a fixed simulated compute cost, so the tradeoff the
// table shows is the real one: the demote path pays a straggler window for a
// bounded number of rounds, the abort path pays the wasted rounds plus a full
// retrain. Every delay sits well clear of the straggler window — the
// straggler answers either inside it or past two of them — so whether a run
// demotes, and so restarts, is the delay's outcome, not the clock's. `make
// bench-elastic` regenerates the JSON via ppml-figures -panel elastic.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/ppml-go/ppml/internal/mapreduce"
)

// Fixed shape of the elastic benchmark jobs.
const (
	elasticRounds    = 40
	elasticFaultAt   = elasticRounds / 2
	elasticDim       = 8
	elasticWork      = 15 * time.Millisecond
	elasticStraggler = 60 * time.Millisecond
)

// ElasticPoint is one injected-delay setting measured under both policies.
type ElasticPoint struct {
	// StragglerDelayMs is the extra per-round delay injected into one
	// mapper's Contribution from round FaultAtRound on.
	StragglerDelayMs float64
	// Demote-and-continue: total wall clock, mean round latency, and how
	// many roster demotions the run recorded.
	DemoteTotalMs float64
	DemoteRoundMs float64
	Demotions     int
	// Abort-and-restart: total wall clock (failed attempt plus retrain when
	// the attempt aborted) and the per-productive-round latency.
	AbortTotalMs float64
	AbortRoundMs float64
	// Restarted reports whether the abort-and-restart attempt actually hit
	// ErrQuorum; below the straggler threshold both policies just wait.
	Restarted bool
	// Speedup is AbortTotalMs / DemoteTotalMs.
	Speedup float64
}

// ElasticReport is the schema of BENCH_elastic.json.
type ElasticReport struct {
	Meta               RunMeta
	Learners           int
	Rounds             int
	WorkMs             float64
	StragglerTimeoutMs float64
	FaultAtRound       int
	Points             []ElasticPoint
}

// benchMapper contributes value − state (the averaging consensus) after a
// fixed simulated compute time; from round extraFrom on it also sleeps extra,
// turning it into the injected straggler.
type benchMapper struct {
	value     []float64
	work      time.Duration
	extra     time.Duration
	extraFrom int
}

func (m *benchMapper) Contribution(iter int, state []float64) ([]float64, error) {
	time.Sleep(m.work)
	if m.extra > 0 && iter >= m.extraFrom {
		time.Sleep(m.extra)
	}
	out := make([]float64, len(m.value))
	for i := range out {
		out[i] = m.value[i] - state[i]
	}
	return out, nil
}

// benchReducer averages over the live roster and never declares convergence:
// the benchmark measures protocol latency over a fixed round budget.
type benchReducer struct {
	state []float64
}

func (r *benchReducer) Combine(iter int, sum []float64, folded int) ([]float64, bool, error) {
	if r.state == nil {
		r.state = make([]float64, len(sum))
	}
	for i := range sum {
		r.state[i] += sum[i] / float64(folded)
	}
	return r.state, false, nil
}

// elasticJob builds the M-learner averaging job; a zero straggler delay
// disables the fault, and the mapper index in skip (−1 for none) is left out
// of the cohort — the restart after an abort excludes the straggler.
func elasticJob(m int, straggler time.Duration, skip int) mapreduce.IterativeJob {
	mappers := make([]mapreduce.IterativeMapper, 0, m)
	for i := 0; i < m; i++ {
		if i == skip {
			continue
		}
		bm := &benchMapper{value: make([]float64, elasticDim), work: elasticWork, extraFrom: elasticFaultAt}
		for j := range bm.value {
			bm.value[j] = float64((i+1)*(j+1)) * 0.5
		}
		if i == m-1 && straggler > 0 {
			bm.extra = straggler
		}
		mappers = append(mappers, bm)
	}
	return mapreduce.IterativeJob{
		Mappers:         mappers,
		Reducer:         &benchReducer{},
		InitialState:    make([]float64, elasticDim),
		ContributionDim: elasticDim,
		MaxIterations:   elasticRounds,
	}
}

// RunElastic measures round latency versus injected straggler delay at M
// learners under both recovery policies. A point whose demote run demoted the
// straggler must also have restarted under MinQuorum = M: the same miss that
// demotes one run fails the other, and a point where it did not measured a
// race between the straggler and the window.
func RunElastic(ctx context.Context, m int) (*ElasticReport, error) {
	if m < 3 {
		return nil, fmt.Errorf("experiments: elastic bench needs at least 3 learners, got %d", m)
	}
	rep := &ElasticReport{
		Meta:               CollectMeta(),
		Learners:           m,
		Rounds:             elasticRounds,
		WorkMs:             float64(elasticWork) / float64(time.Millisecond),
		StragglerTimeoutMs: float64(elasticStraggler) / float64(time.Millisecond),
		FaultAtRound:       elasticFaultAt,
	}
	for _, delay := range []time.Duration{
		0,
		25 * time.Millisecond,
		300 * time.Millisecond,
	} {
		p := ElasticPoint{StragglerDelayMs: float64(delay) / float64(time.Millisecond)}

		// Demote-and-continue: one uninterrupted run.
		res, err := runBenchJob(ctx, elasticJob(m, delay, -1), mapreduce.DriverOptions{
			StragglerTimeout: elasticStraggler,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: elastic demote delay=%v: %w", delay, err)
		}
		p.DemoteTotalMs = float64(res.Elapsed) / float64(time.Millisecond)
		p.DemoteRoundMs = p.DemoteTotalMs / float64(res.Iterations)
		p.Demotions = res.Demotions

		// Abort-and-restart: MinQuorum = M makes any demotion a job failure,
		// exactly the pre-elastic all-or-nothing round contract.
		start := time.Now()
		attempt, err := runBenchJob(ctx, elasticJob(m, delay, -1), mapreduce.DriverOptions{
			StragglerTimeout: elasticStraggler,
			MinQuorum:        m,
		})
		switch {
		case err == nil:
			p.AbortTotalMs = float64(attempt.Elapsed) / float64(time.Millisecond)
		case errors.Is(err, mapreduce.ErrQuorum):
			// The straggler killed the attempt; restart from scratch without it.
			p.Restarted = true
			if _, err := runBenchJob(ctx, elasticJob(m, 0, m-1), mapreduce.DriverOptions{
				StragglerTimeout: elasticStraggler,
			}); err != nil {
				return nil, fmt.Errorf("experiments: elastic restart delay=%v: %w", delay, err)
			}
			p.AbortTotalMs = float64(time.Since(start)) / float64(time.Millisecond)
		default:
			return nil, fmt.Errorf("experiments: elastic abort delay=%v: %w", delay, err)
		}
		if p.Demotions > 0 && !p.Restarted {
			return nil, fmt.Errorf("experiments: elastic delay=%v: the demote run demoted %d times but MinQuorum = %d never aborted", delay, p.Demotions, m)
		}
		p.AbortRoundMs = p.AbortTotalMs / float64(elasticRounds)
		p.Speedup = p.AbortTotalMs / p.DemoteTotalMs
		rep.Points = append(rep.Points, p)
	}
	return rep, nil
}

// runBenchJob runs one benchmark job on a fresh in-proc network under the
// caller's context (bounded so a wedged job cannot hang the whole sweep).
func runBenchJob(ctx context.Context, job mapreduce.IterativeJob, opts mapreduce.DriverOptions) (*mapreduce.DriverResult, error) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Minute)
	defer cancel()
	return mapreduce.RunDistributed(ctx, job, opts)
}

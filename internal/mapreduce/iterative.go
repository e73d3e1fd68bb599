package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/ppml-go/ppml/internal/parallel"
	"github.com/ppml-go/ppml/internal/telemetry"
)

// IterativeMapper is a long-lived Map() task of the Twister-style engine. It
// holds its private data partition for the whole job (data locality) and per
// iteration turns the broadcast consensus state into a local contribution
// vector. Only the contribution ever leaves the node, and in the default
// configuration it leaves masked.
type IterativeMapper interface {
	// Contribution computes the Mapper's local update for this iteration.
	// The returned vector must always have the same length for a given job.
	Contribution(iter int, state []float64) ([]float64, error)
}

// IterativeReducer is the Reduce() side: it receives only the aggregated sum
// of all Mapper contributions and produces the next broadcast state.
type IterativeReducer interface {
	// Combine folds the aggregate into the next state. done=true ends the
	// job with next as the final state. The runtime may reuse sum's backing
	// array after Combine returns; implementations that keep the aggregate
	// must copy it.
	Combine(iter int, sum []float64) (next []float64, done bool, err error)
}

// WeightedReducer is an IterativeReducer whose combine step scales to how much
// was folded: a consensus mean or a proximal weight divides by the cohort the
// sum actually covers, not the one the job started with. Both engines call
// SetRoundWeight before every Combine with the number of mappers the round's
// sum folded: the whole cohort under RunLocalContext and under strict rounds,
// the live roster under elastic ones. Reducers whose aggregates are absolute
// sums (counts, moments) simply don't implement it.
type WeightedReducer interface {
	IterativeReducer
	// SetRoundWeight announces how many mappers the next Combine's sum folded.
	SetRoundWeight(total float64)
}

// Errors returned by the engines.
var (
	// ErrBadJob indicates a malformed job description.
	ErrBadJob = errors.New("mapreduce: bad job")
	// ErrAborted reports that a Mapper failed fatally and the job unwound.
	ErrAborted = errors.New("mapreduce: job aborted")
	// ErrQuorum reports that a round's roster fell below MinQuorum under a
	// straggler deadline and the job stopped rather than train on too few
	// parties.
	ErrQuorum = errors.New("mapreduce: roster below quorum")
)

// IterativeJob describes one consensus training job.
type IterativeJob struct {
	Mappers []IterativeMapper
	Reducer IterativeReducer
	// InitialState is the iteration-0 broadcast.
	InitialState []float64
	// ContributionDim is the length of every Mapper contribution.
	ContributionDim int
	// MaxIterations caps the loop; reaching it without Combine reporting
	// done is not an error (the trainers treat it as "ran the budget").
	MaxIterations int
}

func (j *IterativeJob) validate() error {
	switch {
	case len(j.Mappers) == 0:
		return fmt.Errorf("%w: no mappers", ErrBadJob)
	case j.Reducer == nil:
		return fmt.Errorf("%w: nil reducer", ErrBadJob)
	case j.ContributionDim <= 0:
		return fmt.Errorf("%w: contribution dim %d", ErrBadJob, j.ContributionDim)
	case j.MaxIterations <= 0:
		return fmt.Errorf("%w: max iterations %d", ErrBadJob, j.MaxIterations)
	}
	for i, m := range j.Mappers {
		if m == nil {
			return fmt.Errorf("%w: mapper %d is nil", ErrBadJob, i)
		}
	}
	return nil
}

// IterativeResult reports a finished job.
type IterativeResult struct {
	// FinalState is the last consensus state.
	FinalState []float64
	// Iterations is the number of completed rounds.
	Iterations int
	// Converged reports whether the Reducer signalled done before the cap.
	Converged bool
}

// RunLocalContext executes the job in process, summing contributions
// directly. Each
// iteration invokes every Mapper's Contribution concurrently on the parallel
// worker pool — the same goroutine-per-mapper structure RunDistributed has —
// then folds the results in mapper order, so the sum (and therefore the whole
// run) is deterministic and identical to a sequential execution. The
// trainers' unit tests and the pure-math benchmarks use it. The context is
// checked at every iteration boundary, so a cancelled training run stops
// after at most one more round of Contributions instead of running out its
// budget.
func RunLocalContext(ctx context.Context, job IterativeJob) (*IterativeResult, error) {
	if err := job.validate(); err != nil {
		return nil, err
	}
	// Telemetry rides in on the context (telemetry.NewContext); with none
	// attached the handles are nil and every operation is a free no-op.
	reg := telemetry.FromContext(ctx)
	reg.Gauge(metricFanout).Set(float64(len(job.Mappers)))
	rounds := reg.Counter(metricRounds)
	roundDur := reg.Histogram(metricRoundSeconds, telemetry.DurationBuckets)
	journal := reg.Journal()
	state := append([]float64(nil), job.InitialState...)
	res := &IterativeResult{}
	m := len(job.Mappers)
	contribs := make([][]float64, m)
	errs := make([]error, m)
	sum := make([]float64, job.ContributionDim)
	weighted, _ := job.Reducer.(WeightedReducer)
	for iter := 0; iter < job.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		roundStart := time.Now()
		journal.Emit(reducerName, "round.start", telemetry.TraceID{}, int32(iter), "", "", 0, 0)
		parallel.For(m, 1, func(lo, hi int) {
			for mi := lo; mi < hi; mi++ {
				contribs[mi], errs[mi] = job.Mappers[mi].Contribution(iter, state)
			}
		})
		for j := range sum {
			sum[j] = 0
		}
		for mi := 0; mi < m; mi++ {
			if err := errs[mi]; err != nil {
				return nil, fmt.Errorf("%w: mapper %d at iteration %d: %v", ErrAborted, mi, iter, err)
			}
			contrib := contribs[mi]
			if len(contrib) != job.ContributionDim {
				return nil, fmt.Errorf("%w: mapper %d contributed %d values, want %d",
					ErrBadJob, mi, len(contrib), job.ContributionDim)
			}
			for j, v := range contrib {
				sum[j] += v
			}
		}
		// A round counts once its aggregate exists, same definition as the
		// distributed driver's.
		secs := time.Since(roundStart).Seconds()
		roundDur.Observe(secs)
		rounds.Inc()
		journal.Emit(reducerName, "round.end", telemetry.TraceID{}, int32(iter), "", "", 0, secs)
		if weighted != nil {
			weighted.SetRoundWeight(float64(m))
		}
		next, done, err := job.Reducer.Combine(iter, sum)
		if err != nil {
			return nil, fmt.Errorf("%w: reducer at iteration %d: %v", ErrAborted, iter, err)
		}
		state = append(state[:0], next...)
		res.Iterations = iter + 1
		if done {
			res.Converged = true
			break
		}
	}
	res.FinalState = state
	return res, nil
}

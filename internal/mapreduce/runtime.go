package mapreduce

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/ppml-go/ppml/internal/fixedpoint"
	"github.com/ppml-go/ppml/internal/securesum"
	"github.com/ppml-go/ppml/internal/telemetry"
	"github.com/ppml-go/ppml/internal/transport"
)

// Aggregation selects how Mapper contributions reach the Reducer.
type Aggregation int

const (
	// AggregationMasked runs the Section V pairwise-mask secure summation
	// protocol; the Reducer sees only the sum. This is the default.
	AggregationMasked Aggregation = iota + 1
	// AggregationPlain sends each contribution as the masked share without
	// its masks: the same ring encoding and wire format, collected the same
	// way, so it trains the masked job's model bit for bit. No privacy.
	// Included for the overhead ablation and for debugging.
	AggregationPlain
)

// DriverOptions configures RunDistributed.
type DriverOptions struct {
	// Network defaults to a fresh in-process network.
	Network transport.Network
	// Aggregation defaults to AggregationMasked.
	Aggregation Aggregation
	// StragglerTimeout makes rounds elastic (demote-and-continue): a mapper
	// that has not answered within this bound is demoted for the round
	// instead of stalling or failing the job. A mapper demoted at round d is
	// broadcast to again in rounds d+1, d+2, d+4, … and rejoins the first of
	// them it answers in time. Zero (the default) keeps membership fixed: every
	// mapper answers every round or the job fails, and a round waits until
	// it completes or ctx ends (the error then names the round).
	StragglerTimeout time.Duration
	// MinQuorum is the smallest roster a round will fold under a
	// StragglerTimeout. Below it the job fails rather than silently training
	// on too few parties. 0 defaults to 2 under masked aggregation (a roster
	// of one would hand the Reducer an effectively unmasked share) and 1
	// otherwise. Without a StragglerTimeout the quorum is the whole cohort.
	MinQuorum int
	// Telemetry optionally attaches a metrics registry: per-round durations
	// and journal events, the timeout counter, the mapper fan-out gauge, the
	// securesum per-kind traffic counters, and — when the Network supports
	// it — the transport counters. Nil records nothing at zero cost. When
	// nil, a registry already carried by the context (telemetry.NewContext)
	// is used instead.
	Telemetry *telemetry.Registry
}

// DriverResult reports a distributed run.
type DriverResult struct {
	IterativeResult
	// Net are the transport counters accumulated by the job.
	Net transport.Stats
	// Elapsed is the wall-clock time from the job's start to the end of its
	// last round. It leaves out the teardown, which waits for every mapper,
	// a demoted straggler's in-flight Contribution included.
	Elapsed time.Duration
	// Demotions and Rejoins count roster transitions: a mapper leaving the
	// roster between consecutive rounds, and one returning. Always zero
	// without a StragglerTimeout, where a demotion fails the job.
	Demotions int
	Rejoins   int
}

const reducerName = "reducer"

// Telemetry metric families exported by the runtime. All are scalars of the
// driver's own control flow — never contribution or state values.
const (
	metricRounds       = "ppml_rounds_total"
	metricRoundSeconds = "ppml_round_seconds"
	metricTimeouts     = "ppml_round_timeouts_total"
	metricFanout       = "ppml_mapper_fanout"
	// Roster metrics: how many mappers each round actually folded,
	// and the cumulative roster churn. All are counts of the driver's
	// control flow, never contribution values.
	metricParticipants = "ppml_round_participants"
	metricDemotions    = "ppml_mapper_demotions_total"
	metricRejoins      = "ppml_mapper_rejoins_total"
)

// sessionCounter allocates process-unique job session ids. Session 0 is
// reserved for traffic outside any job, so the first allocation is 1.
var sessionCounter atomic.Uint64

// RunDistributed executes the iterative job over a simulated cluster: one
// transport endpoint per Mapper plus the Reducer, per-iteration broadcast and
// (by default) secure aggregation, exactly the system structure of Fig. 1.
// It sets the session up, hands the rounds to the engine (engine.go) and the
// Mappers to runMapperNode (mapper.go), and tears the session down.
func RunDistributed(ctx context.Context, job IterativeJob, opts DriverOptions) (*DriverResult, error) {
	if err := job.validate(); err != nil {
		return nil, err
	}
	reg := opts.Telemetry
	if reg == nil {
		reg = telemetry.FromContext(ctx)
	} else {
		ctx = telemetry.NewContext(ctx, reg)
	}
	net := opts.Network
	if net == nil {
		net = transport.NewInProc()
		defer net.Close()
	}
	if reg != nil {
		// Attach the transport counters when the network supports them. A
		// caller-provided network keeps the attachment after the job — its
		// counters are cumulative across jobs, like Stats.
		if tn, ok := net.(interface {
			SetTelemetry(*telemetry.Registry)
		}); ok {
			tn.SetTelemetry(reg)
		}
	}
	agg := opts.Aggregation
	if agg == 0 {
		agg = AggregationMasked
	}
	m := len(job.Mappers)
	// Shares encode under the m-party bound whether masked or not, so a plain
	// share obeys the range a masked one does.
	codec := fixedpoint.Default().ForSummands(m)
	pol, err := newPolicy(opts, agg, m)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	res := &DriverResult{}

	// Prepared metric handles; with no registry each is nil and every
	// operation below is a free no-op.
	reg.Gauge(metricFanout).Set(float64(m))
	var sstel *securesum.Telemetry
	if agg == AggregationMasked {
		sstel = securesum.NewTelemetry(reg)
	}
	eng := &engine{
		policy: pol,
		sessionEnv: sessionEnv{
			session: sessionCounter.Add(1),
			// Trace identity for the whole session: the reducer mints it here
			// and stamps it into every envelope; mappers echo it back, so every
			// node's journal keys its events to the same cross-node timeline.
			trace:   telemetry.NewTraceID(),
			names:   make([]string, m),
			journal: reg.Journal(),
		},
		idOf:         make(map[string]int, m),
		rounds:       reg.Counter(metricRounds),
		roundDur:     reg.Histogram(metricRoundSeconds, telemetry.DurationBuckets),
		timeouts:     reg.Counter(metricTimeouts),
		participants: reg.Gauge(metricParticipants),
		demotions:    reg.Counter(metricDemotions),
		rejoins:      reg.Counter(metricRejoins),
		res:          res,
	}
	for i := range eng.names {
		eng.names[i] = fmt.Sprintf("mapper-%d", i)
		eng.idOf[eng.names[i]] = i
	}
	if eng.col, err = securesum.NewCollector(m, job.ContributionDim, codec); err != nil {
		return nil, err
	}
	eng.kind = securesum.KindShare
	if agg == AggregationPlain {
		eng.kind = KindPlainShare
	}
	if eng.ep, err = net.Endpoint(reducerName); err != nil {
		return nil, fmt.Errorf("mapreduce: reducer endpoint: %w", err)
	}
	// The job's endpoints are released on every exit path: a caller-provided
	// network must not accumulate listeners and reader goroutines across
	// jobs, and closing the endpoints unblocks any mapper still parked in
	// Recv when the driver unwinds early.
	defer eng.ep.Close()
	mapEPs := make([]transport.Endpoint, m)
	for i := range mapEPs {
		ep, err := net.Endpoint(eng.names[i])
		if err != nil {
			return nil, fmt.Errorf("mapreduce: mapper endpoint: %w", err)
		}
		mapEPs[i] = ep
		defer ep.Close()
	}

	env := &mapperEnv{
		sessionEnv: eng.sessionEnv,
		policy:     pol,
		agg:        agg,
		codec:      codec,
		dim:        job.ContributionDim,
		sstel:      sstel,
	}
	mapperErrs := make(chan error, m)
	for i := 0; i < m; i++ {
		go func(i int) {
			mapperErrs <- runMapperNode(ctx, env, i, mapEPs[i], job.Mappers[i])
		}(i)
	}

	state, jobErr := eng.run(ctx, job)
	elapsed := time.Since(start)

	// Tear down: the stop carries nothing, stamped with the round the job
	// finished on so transcripts show where it stopped.
	stopHdr := eng.header(int32(res.Iterations))
	for _, name := range eng.names {
		//ppml:err-ok best-effort teardown: a mapper that already exited, was demoted or sits behind a dead link cannot receive its stop, and must not mask the job result
		_ = eng.ep.Send(ctx, name, KindStop, stopHdr, nil)
	}
	if pol.deadline > 0 {
		// Under a straggler deadline a mapper may be dead or partitioned: it
		// never sees its stop and stays parked in RecvMatch. Closing the
		// endpoints unblocks every mapper goroutine with ErrClosed so the
		// drain below terminates.
		for _, ep := range mapEPs {
			//ppml:err-ok teardown close: the endpoint is being discarded and the job result is already decided
			_ = ep.Close()
		}
	}
	// Mapper errors are roster events, reported to the Reducer as aborts or
	// silence — the engine's outcome stands alone.
	for i := 0; i < m; i++ {
		<-mapperErrs
	}
	if jobErr != nil {
		// Post-mortem flight-recorder dump (PPML_JOURNAL_DUMP-gated): the
		// journal's last window is exactly the evidence an aborted
		// distributed round leaves behind. Best-effort — the job error
		// below is the one worth reporting.
		_, _ = reg.AutoDumpJournal(eng.trace.String())
		return nil, jobErr
	}
	res.FinalState = state
	res.Net = net.Stats()
	res.Elapsed = elapsed
	return res, nil
}

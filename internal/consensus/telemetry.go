package consensus

import "github.com/ppml-go/ppml/internal/telemetry"

// Metric names exported by the trainers. The gauges expose only scalars the
// Reducer legitimately computes from the public aggregate — the consensus
// dual residual proxy ‖Δz‖² and the evaluation accuracy. Per-learner primal
// residuals ‖w_i − z‖ are deliberately NOT recorded: they exist only on the
// learners, and exporting them would widen the Reducer's view beyond the
// protocol transcript the semi-honest analysis assumes (DESIGN.md §11).
const (
	metricADMMRounds   = "ppml_admm_rounds"
	metricDeltaZSq     = "ppml_admm_delta_z_sq"
	metricEvalAccuracy = "ppml_admm_eval_accuracy"
)

// reducerGauges are the per-round residual gauges shared by every scheme's
// Reducer. The zero value (nil registry) records nothing.
type reducerGauges struct {
	deltaZSq *telemetry.Gauge
	accuracy *telemetry.Gauge
	journal  *telemetry.Journal
	scheme   string
}

// newReducerGauges builds the gauges labeled with the training scheme
// (hl, hk, vl-vk, logistic). A nil registry yields no-op gauges.
func newReducerGauges(r *telemetry.Registry, scheme string) reducerGauges {
	lbl := telemetry.L("scheme", scheme)
	return reducerGauges{
		deltaZSq: r.Gauge(metricDeltaZSq, lbl),
		accuracy: r.Gauge(metricEvalAccuracy, lbl),
		journal:  r.Journal(),
		scheme:   scheme,
	}
}

// journalRound records one consensus round in the flight recorder: event
// "consensus.round", kind = scheme, value = the public residual ‖Δz‖² — the
// same Reducer-side stopping statistic the deltaZSq gauge exports, never a
// per-learner quantity.
func (g reducerGauges) journalRound(iter int, delta float64) {
	//ppml:flow-ok the residual ‖Δz‖² is the cohort-wide stopping statistic the deltaZSq gauge already exports — an aggregate over the consensus state, not a sample of any learner's data
	g.journal.Emit("reducer", "consensus.round", telemetry.TraceID{}, int32(iter), "", g.scheme, 0, delta)
}

// probeStart and probeEnd bracket the per-round accuracy probe in the flight
// recorder ("probe.start" / "probe.end", kind = scheme), so a trace separates
// what Fig. 4's curve costs from the fold around it. The end event carries
// the eval-set accuracy, the scalar History.Accuracy publishes and the
// accuracy gauge, set here too, already exports.
func (g reducerGauges) probeStart(iter int) {
	g.journal.Emit("reducer", "probe.start", telemetry.TraceID{}, int32(iter), "", g.scheme, 0, 0)
}

func (g reducerGauges) probeEnd(iter int, acc float64) {
	//ppml:flow-ok held-out accuracy is the published evaluation metric — an aggregate over the model, not a training row
	g.accuracy.Set(acc)
	//ppml:flow-ok held-out accuracy is the published evaluation metric — an aggregate over the model, not a training row
	g.journal.Emit("reducer", "probe.end", telemetry.TraceID{}, int32(iter), "", g.scheme, 0, acc)
}

// recordRun observes end-of-training aggregates: the rounds-to-converge
// histogram, plus a terminal "consensus.done" journal event stamped with the
// same public rounds-to-converge count. Nil-safe via the registry's no-op
// handles.
func recordRun(r *telemetry.Registry, h *History) {
	//ppml:flow-ok rounds-to-converge is run metadata (the Fig. 4 curve), an aggregate over the whole cohort, not a sample of any learner's data
	r.Histogram(metricADMMRounds, telemetry.IterationBuckets).Observe(float64(h.Iterations))
	//ppml:flow-ok rounds-to-converge is run metadata (the Fig. 4 curve), an aggregate over the whole cohort, not a sample of any learner's data
	r.Journal().Emit("reducer", "consensus.done", telemetry.TraceID{}, int32(h.Iterations), "", "", 0, float64(h.Iterations))
}

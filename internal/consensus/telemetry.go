package consensus

import (
	"fmt"

	"github.com/ppml-go/ppml/internal/telemetry"
)

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
	// The support rows the HK mappers' accuracy probes scored: a count of
	// kernel work, not of any learner's data.
	metricProbeKernelRows = "ppml_probe_kernel_rows_total"
)

// roundLog is the per-round tail both consensus reducers share: the History
// series (‖Δz‖², and the eval-set accuracy when there is a probe), the gauges
// and journal events that export them, labeled with the training scheme (hl,
// hk, vl-vk), and the Tol test. The zero value logs the series,
// exports nothing and never stops early.
type roundLog struct {
	tol float64
	// probe scores the state the reducer just folded on the eval set; nil
	// without one. It is bound once, so no round allocates a closure.
	probe func() (float64, error)

	deltaZSq, accuracy []float64

	deltaGauge, accGauge *telemetry.Gauge
	journal              *telemetry.Journal
	scheme               string
}

func newRoundLog(cfg Config, scheme string) roundLog {
	lbl := telemetry.L("scheme", scheme)
	return roundLog{
		tol:        cfg.Tol,
		deltaZSq:   make([]float64, 0, cfg.MaxIterations),
		accuracy:   make([]float64, 0, cfg.MaxIterations),
		deltaGauge: cfg.Telemetry.Gauge(metricDeltaZSq, lbl),
		accGauge:   cfg.Telemetry.Gauge(metricEvalAccuracy, lbl),
		journal:    cfg.Telemetry.Journal(),
		scheme:     scheme,
	}
}

// record logs round iter's residual delta = ‖Δz‖² — the public, cohort-wide
// stopping statistic, never a per-learner quantity — as a series entry, the
// gauge and a "consensus.round" journal event; then runs the probe, bracketed
// by "probe.start" / "probe.end" so a trace separates what Fig. 4's curve
// costs from the fold around it. It reports whether delta is below Tol.
func (l *roundLog) record(iter int, delta float64) (done bool, err error) {
	l.deltaZSq = append(l.deltaZSq, delta)
	//ppml:flow-ok the consensus residual ‖z−z′‖² is the public stopping statistic every learner computes from the shared iterate
	l.deltaGauge.Set(delta)
	//ppml:flow-ok the residual ‖Δz‖² is the cohort-wide stopping statistic the deltaZSq gauge already exports — an aggregate over the consensus state, not a sample of any learner's data
	l.journal.Emit("reducer", "consensus.round", telemetry.TraceID{}, int32(iter), "", l.scheme, 0, delta)
	if l.probe != nil {
		l.journal.Emit("reducer", "probe.start", telemetry.TraceID{}, int32(iter), "", l.scheme, 0, 0)
		acc, err := l.probe()
		if err != nil {
			return false, fmt.Errorf("consensus: eval-set accuracy after round %d: %w", iter, err)
		}
		l.accuracy = append(l.accuracy, acc)
		l.accGauge.Set(acc)
		l.journal.Emit("reducer", "probe.end", telemetry.TraceID{}, int32(iter), "", l.scheme, 0, acc)
	}
	return l.tol > 0 && delta < l.tol, nil
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

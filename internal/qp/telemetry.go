package qp

import "github.com/ppml-go/ppml/internal/telemetry"

// Metric names exported by the solvers. Only scalar diagnostics are recorded
// (iteration counts, solve totals) — never λ, gradients, or problem data,
// which carry the learners' private training sets.
const (
	metricSolves      = "ppml_qp_solves_total"
	metricIterations  = "ppml_qp_iterations"
	metricUnconverged = "ppml_qp_unconverged_total"
)

// WithTelemetry records solver diagnostics into r on every successful solve:
// ppml_qp_solves_total, a ppml_qp_iterations histogram and, for a solve that
// returned at its update cap or stuck short of the tolerance,
// ppml_qp_unconverged_total — all labeled solver=box|smo|diag|linear. A nil
// registry records nothing at zero cost.
func WithTelemetry(r *telemetry.Registry) Option {
	return Option{kind: optTelemetry, tel: r}
}

// record emits the per-solve metrics; solver names the algorithm family.
func (c *config) record(solver string, res *Result) {
	if c.tel == nil {
		return
	}
	lbl := telemetry.L("solver", solver)
	c.tel.Counter(metricSolves, lbl).Inc()
	c.tel.Histogram(metricIterations, telemetry.IterationBuckets, lbl).Observe(float64(res.Iterations))
	if !res.Converged {
		c.tel.Counter(metricUnconverged, lbl).Inc()
	}
}

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

// updateBuckets is ppml_qp_iterations' layout: 1–2–5 steps from one update
// to a million. A diag solve takes a few passes, a kernel box solve 10²–10⁴
// updates, and an HL chunk or partition solve 10³–2.5·10⁵, so every solver
// lands in a finite bucket; the consensus round count keeps
// telemetry.IterationBuckets.
var updateBuckets = []float64{
	1, 2, 5, 10, 20, 50, 100, 200, 500,
	1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6,
}

// WithTelemetry records solver diagnostics into r on every successful solve:
// ppml_qp_solves_total, a ppml_qp_iterations histogram and, for a solve that
// returned at its update cap or stuck short of the tolerance,
// ppml_qp_unconverged_total — all labeled
// solver=box|smo|diag|linear|linear-eq. A nil registry records nothing at
// zero cost.
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
	c.tel.Histogram(metricIterations, updateBuckets, lbl).Observe(float64(res.Iterations))
	if !res.Converged {
		c.tel.Counter(metricUnconverged, lbl).Inc()
	}
}

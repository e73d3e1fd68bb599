package ppml

import (
	"net/http"

	"github.com/ppml-go/ppml/internal/telemetry"
)

// Telemetry is a live metrics registry for one or more training runs. Attach
// it with WithTelemetry and the trainers record round counts and durations,
// secure-summation traffic, transport frame and byte counters, QP solver
// iterations, and the ADMM residual gauges — scalars only, never model
// weights, shares, or gradients (the telemetry package cannot represent
// vectors by construction; see DESIGN.md §11).
//
// A Telemetry is safe for concurrent use by any number of training runs and
// HTTP scrapes. The zero value is not usable; construct with NewTelemetry.
type Telemetry struct {
	reg *telemetry.Registry
}

// NewTelemetry creates an empty registry.
func NewTelemetry() *Telemetry {
	return &Telemetry{reg: telemetry.NewRegistry()}
}

// Handler returns an http.Handler serving the live registry: /metrics
// (Prometheus text format), /debug/vars (expvar-compatible JSON), and the
// standard /debug/pprof profiling endpoints. Mount it on a listener of your
// choosing; nothing is served unless you do.
func (t *Telemetry) Handler() http.Handler {
	return telemetry.NewMux(t.reg)
}

// Snapshot returns a typed copy of every metric and the recent span ring.
func (t *Telemetry) Snapshot() *telemetry.Snapshot {
	return t.reg.Snapshot()
}

// Registry exposes the underlying registry for in-module instrumentation
// (the commands use it to share one registry between training and serving).
func (t *Telemetry) Registry() *telemetry.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// WithTelemetry attaches a metrics registry to the training run. All
// recording is scalar-only and adds no measurable overhead to the round
// loop; passing nil (or omitting the option) disables it entirely.
func WithTelemetry(t *Telemetry) Option {
	return func(o *options) { o.cfg.Telemetry = t.Registry() }
}

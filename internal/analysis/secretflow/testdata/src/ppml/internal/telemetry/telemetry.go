// Package telemetry is a golden stub of the metrics/journal layer; every
// call into it is a secretflow sink.
package telemetry

// Gauge is a single scalar metric.
type Gauge struct{}

// Set records the gauge value.
func (Gauge) Set(v float64) {}

// Logger is a loose variadic sink the real scalar-only API does not have, so
// the goldens can hand a sink arguments Emit would reject at compile time.
type Logger struct{}

// Event emits one structured log record.
func (Logger) Event(msg string, kv ...any) {}

// TraceID is the distributed-trace session identity: two random
// words minted by the reducer before any data exists.
type TraceID struct{ Hi, Lo uint64 }

// Journal is the bounded flight recorder; Emit is a scalar-only sink.
type Journal struct{}

// Emit records one round-lifecycle event.
func (*Journal) Emit(node, event string, trace TraceID, round int32, peer, kind string, bytes int64, value float64) {
}

// Package telemetry is a golden stand-in for the repository's metric
// registry, including a deliberately loose variadic sink so the checker can
// be exercised against arguments the real scalar-only API would reject at
// compile time.
package telemetry

// Label is one metric dimension.
type Label struct{ Key, Value string }

// L builds a label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Registry mirrors the real registry's surface.
type Registry struct{}

// Gauge-like scalar sink.
func (r *Registry) Set(name string, v float64, labels ...Label) {}

// Histogram mirrors the real constructor: the bounds slice is layout
// configuration and must be exempt.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) {}

// Record is the loose any-typed sink a future change might add.
func (r *Registry) Record(name string, v any) {}

// Logger is a second loose sink, with a variadic any tail.
type Logger struct{}

// Info logs at info level.
func (l *Logger) Info(msg string, kv ...any) {}

// TraceID is the distributed-trace session identity.
type TraceID struct{ Hi, Lo uint64 }

// Journal is the bounded flight recorder; Emit is a scalar-only sink.
type Journal struct{}

// Emit records one round-lifecycle event.
func (*Journal) Emit(node, event string, trace TraceID, round int32, peer, kind string, bytes int64, value float64) {
}

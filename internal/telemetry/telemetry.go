// Package telemetry is the dependency-free observability core: a
// concurrency-safe metrics registry (atomic counters, gauges, lock-striped
// histograms, labeled families) and one event ring, the Journal, whose Emit
// takes only flat scalars.
//
// Privacy stance (DESIGN.md §11): everything recorded here is a scalar the
// semi-honest reducer's view already contains — message counts, byte
// totals, durations, public consensus residuals. Nothing in this package
// accepts a []float64, a share, a mask, or a model vector; secretflow's
// telemetry rule enforces the same property at the call sites in the
// protocol packages.
//
// The disabled path is free: every handle method is a nil-receiver no-op,
// so code instruments unconditionally and pays nothing when no registry is
// attached, a nil *Registry:
//
//	reg.Counter("ppml_rounds_total").Inc() // safe even when reg == nil
package telemetry

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value dimension of a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Registry holds metric families, the round-event journal, and run
// attribution. The zero value is not usable; construct
// with NewRegistry. A nil *Registry is the sanctioned no-op: every method —
// metric creation, observation, snapshotting — is a zero-allocation no-op.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	journal  *Journal
	runInfo  atomic.Pointer[RunInfo]
}

// Option configures a Registry at construction.
type Option func(*Registry)

// WithJournal attaches a round-event journal holding the most recent
// capacity events. Without this option (or the PPML_JOURNAL_RING env) the
// registry has no journal and every Emit through it is a nil no-op.
func WithJournal(capacity int) Option {
	return func(r *Registry) { r.journal = NewJournal(capacity) }
}

// journalRingEnv is the environment override read by NewRegistry so
// operators can switch on the flight recorder without a code or flag
// change: PPML_JOURNAL_RING=8192 enables the journal with that capacity.
const journalRingEnv = "PPML_JOURNAL_RING"

// NewRegistry returns an empty live registry. Options apply after the
// PPML_JOURNAL_RING environment override, so explicit configuration wins.
func NewRegistry(opts ...Option) *Registry {
	r := &Registry{families: make(map[string]*family)}
	if n, err := strconv.Atoi(os.Getenv(journalRingEnv)); err == nil && n > 0 {
		r.journal = NewJournal(n)
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Journal returns the registry's round-event journal, or nil (the no-op
// journal) when none is attached. Nil-safe.
func (r *Registry) Journal() *Journal {
	if r == nil {
		return nil
	}
	return r.journal
}

// RunInfo is the build/host attribution attached to snapshots, /debug/vars,
// and journal dumps — the telemetry-side mirror of experiments.RunMeta, so
// a live scrape is attributable to a commit and a machine.
type RunInfo struct {
	Commit     string `json:"commit,omitempty"`
	GoVersion  string `json:"go_version,omitempty"`
	CPUModel   string `json:"cpu_model,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
}

// SetRunInfo attaches run attribution to the registry. Nil-safe.
func (r *Registry) SetRunInfo(info RunInfo) {
	if r == nil {
		return
	}
	r.runInfo.Store(&info)
}

// RunInfo returns the attached run attribution, or nil. Nil-safe.
func (r *Registry) RunInfo() *RunInfo {
	if r == nil {
		return nil
	}
	return r.runInfo.Load()
}

type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	}
	return "unknown"
}

// family is one metric name with all its label permutations.
type family struct {
	name    string
	kind    metricKind
	bounds  []float64 // histogram upper bounds, ascending; +Inf implicit
	mu      sync.Mutex
	series  map[string]any // canonical label key -> *Counter | *Gauge | *Histogram
	labels  map[string][]Label
	ordered []string // insertion order of series keys, for stable rendering
}

// Counter returns the counter series for name and labels, creating it on
// first use. Repeated calls with the same name and labels return the same
// *Counter, so independent components share one series. Nil-safe: a nil
// registry returns a nil *Counter whose methods no-op.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	v := r.metric(name, counterKind, nil, labels, func() any { return new(Counter) })
	return v.(*Counter)
}

// Gauge returns the gauge series for name and labels, creating it on first
// use. Nil-safe like Counter.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	v := r.metric(name, gaugeKind, nil, labels, func() any { return new(Gauge) })
	return v.(*Gauge)
}

// Histogram returns the histogram series for name and labels, creating it
// with the given ascending bucket upper bounds on first use (a +Inf bucket
// is implicit). The bucket layout is fixed by the first creation; later
// calls reuse it. Nil-safe like Counter.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	fam := r.family(name, histogramKind, buckets)
	v := fam.get(labels, func() any { return newHistogram(fam.bounds) })
	return v.(*Histogram)
}

func (r *Registry) metric(name string, kind metricKind, bounds []float64, labels []Label, mk func() any) any {
	return r.family(name, kind, bounds).get(labels, mk)
}

func (r *Registry) family(name string, kind metricKind, bounds []float64) *family {
	r.mu.Lock()
	fam, ok := r.families[name]
	if !ok {
		fam = &family{
			name:   name,
			kind:   kind,
			series: make(map[string]any),
			labels: make(map[string][]Label),
		}
		if kind == histogramKind {
			fam.bounds = checkBounds(name, bounds)
		}
		r.families[name] = fam
	}
	r.mu.Unlock()
	if fam.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, fam.kind, kind))
	}
	return fam
}

func (f *family) get(labels []Label, mk func() any) any {
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if v, ok := f.series[key]; ok {
		return v
	}
	v := mk()
	f.series[key] = v
	f.labels[key] = canonicalLabels(labels)
	f.ordered = append(f.ordered, key)
	return v
}

func checkBounds(name string, bounds []float64) []float64 {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("telemetry: histogram %q needs at least one bucket bound", name))
	}
	out := append([]float64(nil), bounds...)
	for i := 1; i < len(out); i++ {
		if out[i] <= out[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bucket bounds must ascend", name))
		}
	}
	return out
}

// canonicalLabels returns a sorted copy so series identity and rendering
// are independent of argument order.
func canonicalLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := canonicalLabels(labels)
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// Counter is a monotonically increasing series. All methods are safe for
// concurrent use and no-op on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters are monotonic).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current total.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64 series. All methods are safe for concurrent
// use and no-op on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histStripes spreads histogram observations over several independently
// locked shards so parallel mappers do not serialize on one mutex. Power of
// two so stripe selection is a mask.
const histStripes = 8

type histStripe struct {
	mu     sync.Mutex
	counts []uint64
	sum    float64
	n      uint64
	// Pad to a cache line so adjacent stripes do not false-share.
	_ [24]byte
}

// Histogram is a fixed-bucket, lock-striped distribution. The bucket layout
// is immutable after creation. All methods are safe for concurrent use and
// no-op on a nil receiver.
type Histogram struct {
	bounds  []float64
	next    atomic.Uint32
	stripes [histStripes]histStripe
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds}
	for i := range h.stripes {
		h.stripes[i].counts = make([]uint64, len(bounds)+1)
	}
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	idx := len(h.bounds) // +Inf bucket
	for i, b := range h.bounds {
		if v <= b {
			idx = i
			break
		}
	}
	s := &h.stripes[h.next.Add(1)&(histStripes-1)]
	s.mu.Lock()
	s.counts[idx]++
	s.sum += v
	s.n++
	s.mu.Unlock()
}

// read folds the stripes into one (counts, sum, n) view.
func (h *Histogram) read() ([]uint64, float64, uint64) {
	counts := make([]uint64, len(h.bounds)+1)
	var sum float64
	var n uint64
	for i := range h.stripes {
		s := &h.stripes[i]
		s.mu.Lock()
		for j, c := range s.counts {
			counts[j] += c
		}
		sum += s.sum
		n += s.n
		s.mu.Unlock()
	}
	return counts, sum, n
}

// Fixed bucket layouts shared by the protocol layers, so the same quantity
// is always bucketed the same way regardless of which component created the
// series first.
var (
	// DurationBuckets covers 100µs to 30s, the span from an in-process
	// round to a badly stalled TCP handshake.
	DurationBuckets = []float64{1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1, 5, 30}
	// IterationBuckets covers solver/consensus iteration counts.
	IterationBuckets = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}
)

package telemetry

import (
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", L("kind", "a"))
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("reqs_total", L("kind", "a")); again != c {
		t.Fatal("same name+labels must return the same counter")
	}
	if other := r.Counter("reqs_total", L("kind", "b")); other == c {
		t.Fatal("different labels must return a different series")
	}
	// Label order must not matter for series identity.
	g := r.Gauge("load", L("a", "1"), L("b", "2"))
	if r.Gauge("load", L("b", "2"), L("a", "1")) != g {
		t.Fatal("label order changed series identity")
	}
	g.Set(1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}

	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 5, 50, 5000} {
		h.Observe(v)
	}
	counts, sum, n := h.read()
	if n != 5 || sum != 5060.5 {
		t.Fatalf("histogram n=%d sum=%v, want 5 / 5060.5", n, sum)
	}
	want := []uint64{1, 2, 1, 1}
	for i, c := range counts {
		if c != want[i] {
			t.Fatalf("bucket counts = %v, want %v", counts, want)
		}
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total")
	defer func() {
		if recover() == nil {
			t.Fatal("requesting a counter name as a gauge should panic")
		}
	}()
	r.Gauge("x_total")
}

// TestRegistryRace hammers counters, gauges, histograms, the journal and
// Snapshot concurrently; run under -race this is the registry's
// thread-safety proof.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry(WithJournal(64))
	const writers = 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("race_total", L("w", "shared"))
			g := r.Gauge("race_gauge")
			h := r.Histogram("race_hist", IterationBuckets)
			for i := 0; i < 500; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i % 100))
				r.Journal().Emit("race", "round.end", TraceID{}, int32(i), "", "", 0, 0)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			s := r.Snapshot()
			_ = s.CounterTotal("race_total")
			_ = r.Journal().Snapshot()
		}
	}()
	wg.Wait()
	if got := r.Snapshot().CounterTotal("race_total"); got != writers*500 {
		t.Fatalf("race_total = %d, want %d", got, writers*500)
	}
	if got := r.Snapshot().HistogramCount("race_hist"); got != writers*500 {
		t.Fatalf("race_hist count = %d, want %d", got, writers*500)
	}
	if got := r.Journal().Total(); got != writers*500 {
		t.Fatalf("journal total = %d, want %d", got, writers*500)
	}
}

func TestSnapshotHelpers(t *testing.T) {
	r := NewRegistry()
	r.Counter("msgs_total", L("dir", "sent")).Add(3)
	r.Counter("msgs_total", L("dir", "recv")).Add(4)
	r.Gauge("fanout").Set(16)
	s := r.Snapshot()
	if got := s.CounterTotal("msgs_total"); got != 7 {
		t.Fatalf("family total = %d, want 7", got)
	}
	if got := s.CounterTotal("msgs_total", L("dir", "sent")); got != 3 {
		t.Fatalf("sent total = %d, want 3", got)
	}
	if v, ok := s.GaugeValue("fanout"); !ok || v != 16 {
		t.Fatalf("fanout = %v/%v, want 16/true", v, ok)
	}
	if _, ok := s.GaugeValue("missing"); ok {
		t.Fatal("missing gauge reported found")
	}
}

// TestDisabledZeroAlloc proves the no-op path is free: with a nil registry
// none of the instrumented operations allocates.
func TestDisabledZeroAlloc(t *testing.T) {
	var disabled *Registry
	var c *Counter
	var g *Gauge
	var h *Histogram
	allocs := testing.AllocsPerRun(100, func() {
		c = disabled.Counter("x_total", L("k", "v"))
		c.Inc()
		c.Add(10)
		g = disabled.Gauge("g")
		g.Set(1)
		h = disabled.Histogram("h", DurationBuckets)
		h.Observe(2)
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry path allocated %v times per op, want 0", allocs)
	}
	if s := disabled.Snapshot(); len(s.Counters) != 0 || len(s.Journal) != 0 {
		t.Fatal("disabled snapshot must be empty")
	}
}

package telemetry

import "sort"

// Snapshot is a typed point-in-time copy of the registry, for embedding
// into experiment artifacts (the BENCH_*.json reports) without scraping text
// formats.
type Snapshot struct {
	Counters     []CounterValue   `json:"counters,omitempty"`
	Gauges       []GaugeValue     `json:"gauges,omitempty"`
	Histograms   []HistogramValue `json:"histograms,omitempty"`
	Journal      []JournalEvent   `json:"journal,omitempty"`
	JournalTotal uint64           `json:"journal_total,omitempty"`
	RunInfo      *RunInfo         `json:"run_info,omitempty"`
}

// CounterValue is one counter series.
type CounterValue struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  int64   `json:"value"`
}

// GaugeValue is one gauge series.
type GaugeValue struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// HistogramValue is one histogram series. Counts[i] is the count in the
// bucket bounded above by Bounds[i]; the final entry is the +Inf bucket.
type HistogramValue struct {
	Name   string    `json:"name"`
	Labels []Label   `json:"labels,omitempty"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// Snapshot copies every series out of the registry. Nil-safe: the disabled
// registry snapshots to an empty value.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{}
	if r == nil {
		return s
	}
	for _, fam := range r.sortedFamilies() {
		fam.mu.Lock()
		for _, key := range fam.ordered {
			labels := fam.labels[key]
			switch v := fam.series[key].(type) {
			case *Counter:
				s.Counters = append(s.Counters, CounterValue{Name: fam.name, Labels: labels, Value: v.Value()})
			case *Gauge:
				s.Gauges = append(s.Gauges, GaugeValue{Name: fam.name, Labels: labels, Value: v.Value()})
			case *Histogram:
				counts, sum, n := v.read()
				s.Histograms = append(s.Histograms, HistogramValue{
					Name:   fam.name,
					Labels: labels,
					Bounds: append([]float64(nil), v.bounds...),
					Counts: counts,
					Sum:    sum,
					Count:  n,
				})
			}
		}
		fam.mu.Unlock()
	}
	s.Journal = r.journal.Snapshot()
	s.JournalTotal = r.journal.Total()
	s.RunInfo = r.RunInfo()
	return s
}

// sortedFamilies returns the families in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// CounterTotal sums every series of the named counter family whose labels
// include all of match. With no match arguments it totals the family.
func (s *Snapshot) CounterTotal(name string, match ...Label) int64 {
	var total int64
	for _, c := range s.Counters {
		if c.Name == name && labelsInclude(c.Labels, match) {
			total += c.Value
		}
	}
	return total
}

// GaugeValue returns the value of the first gauge series matching name and
// match, and whether one was found.
func (s *Snapshot) GaugeValue(name string, match ...Label) (float64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name && labelsInclude(g.Labels, match) {
			return g.Value, true
		}
	}
	return 0, false
}

// HistogramCount returns the total observation count across histogram
// series matching name and match.
func (s *Snapshot) HistogramCount(name string, match ...Label) uint64 {
	var total uint64
	for _, h := range s.Histograms {
		if h.Name == name && labelsInclude(h.Labels, match) {
			total += h.Count
		}
	}
	return total
}

func labelsInclude(have []Label, want []Label) bool {
	for _, w := range want {
		found := false
		for _, h := range have {
			if h == w {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

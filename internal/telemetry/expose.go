package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every series in the Prometheus text exposition
// format (version 0.0.4). Families are emitted in name order. Nil-safe.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, fam := range r.sortedFamilies() {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam.name, fam.kind); err != nil {
			return err
		}
		fam.mu.Lock()
		err := writeFamily(w, fam)
		fam.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

func writeFamily(w io.Writer, fam *family) error {
	for _, key := range fam.ordered {
		labels := fam.labels[key]
		switch v := fam.series[key].(type) {
		case *Counter:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", fam.name, promLabels(labels, "", 0), v.Value()); err != nil {
				return err
			}
		case *Gauge:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", fam.name, promLabels(labels, "", 0), promFloat(v.Value())); err != nil {
				return err
			}
		case *Histogram:
			counts, sum, n := v.read()
			var cum uint64
			for i, b := range v.bounds {
				cum += counts[i]
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", fam.name, promLabels(labels, "le", b), cum); err != nil {
					return err
				}
			}
			cum += counts[len(v.bounds)]
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", fam.name, promLabels(labels, "le", math.Inf(1)), cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", fam.name, promLabels(labels, "", 0), promFloat(sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", fam.name, promLabels(labels, "", 0), n); err != nil {
				return err
			}
		}
	}
	return nil
}

// promLabels renders {k="v",...}; a non-empty leKey appends the histogram
// bucket bound (+Inf when le is positive infinity).
func promLabels(labels []Label, leKey string, le float64) string {
	if len(labels) == 0 && leKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	if leKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(leKey)
		b.WriteByte('=')
		if math.IsInf(le, 1) {
			b.WriteString(`"+Inf"`)
		} else {
			b.WriteString(strconv.Quote(promFloat(le)))
		}
	}
	b.WriteByte('}')
	return b.String()
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteVars renders an expvar-compatible JSON object: one top-level key per
// metric series (name plus {labels} when labeled), alongside the standard
// "cmdline" and "memstats" vars expvar publishes. Nil-safe.
func (r *Registry) WriteVars(w io.Writer) error {
	snap := r.Snapshot()
	type kv struct {
		key string
		val any
	}
	var vars []kv
	for _, c := range snap.Counters {
		vars = append(vars, kv{varKey(c.Name, c.Labels), c.Value})
	}
	for _, g := range snap.Gauges {
		vars = append(vars, kv{varKey(g.Name, g.Labels), g.Value})
	}
	for _, h := range snap.Histograms {
		vars = append(vars, kv{varKey(h.Name, h.Labels), map[string]any{
			"bounds": h.Bounds, "counts": h.Counts, "sum": h.Sum, "count": h.Count,
		}})
	}
	vars = append(vars, kv{"journal", map[string]any{"total": snap.JournalTotal, "capacity": r.Journal().Capacity()}})
	if snap.RunInfo != nil {
		vars = append(vars, kv{"runinfo", snap.RunInfo})
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].key < vars[j].key })

	if _, err := io.WriteString(w, "{\n"); err != nil {
		return err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	first := true
	writeVar := func(key string, val any) error {
		if !first {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		first = false
		raw, err := json.Marshal(val)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "%s: %s", strconv.Quote(key), raw)
		return err
	}
	if err := writeVar("cmdline", os.Args); err != nil {
		return err
	}
	if err := writeVar("memstats", ms); err != nil {
		return err
	}
	for _, v := range vars {
		if err := writeVar(v.key, v.val); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n}\n")
	return err
}

func varKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Handler serves the registry in Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// A broken scrape connection is the scraper's problem; nothing to
		// do server-side.
		_ = r.WritePrometheus(w)
	})
}

// NewMux returns an http.ServeMux exposing the registry and the runtime:
//
//	/metrics             Prometheus text format
//	/debug/vars          expvar-compatible JSON snapshot
//	/debug/ppml/journal  flight-recorder dump (JSON), merged by ppml-trace
//	/debug/pprof/        net/http/pprof profiles
//
// Mounted on a private mux (not http.DefaultServeMux) so importing this
// package never changes the default mux of the embedding process.
func NewMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		// A broken scrape connection is the scraper's problem; nothing to
		// do server-side.
		_ = r.WriteVars(w)
	})
	mux.HandleFunc("/debug/ppml/journal", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		// A broken scrape connection is the scraper's problem; nothing to
		// do server-side.
		_ = r.WriteJournal(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

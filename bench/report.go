package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/ppml-go/ppml/internal/experiments"
)

// meta is the run attribution stamped into every report.
type meta struct {
	experiments.RunMeta
	NumCPU  int     `json:"nproc"`
	LoadAvg string  `json:"loadavg_at_start"`
	Started string  `json:"started"`
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Repeats int     `json:"repeats"`
	Trace   bool    `json:"trace"`
	Smoke   bool    `json:"smoke"`
}

// report is what -out writes and -diff reads: one result per workload.
type report struct {
	Meta    meta      `json:"meta"`
	Results []*result `json:"results"`
	AA      []aaRow   `json:"aa,omitempty"`
}

func loadAvg() string {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.Join(strings.Fields(string(raw))[:3], " ")
}

func newReport(o options, results []*result) *report {
	return &report{
		Meta: meta{
			RunMeta: experiments.CollectMeta(), NumCPU: runtime.NumCPU(), LoadAvg: loadAvg(),
			Started: time.Now().UTC().Format(time.RFC3339),
			Seed:    o.Seed, Seconds: o.Seconds, Repeats: o.Repeats, Trace: o.Trace, Smoke: o.Smoke,
		},
		Results: results,
	}
}

func (r *report) write(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// defs is the metric table of the pass a result came from.
func (r *result) defs() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// print lists every metric of every result by name with its unit, then, for
// more than one workload, the same values as a metric x workload grid.
func (r *report) print(w io.Writer) {
	m := r.Meta
	fmt.Fprintf(w, "# commit %s  %s  %s  nproc %d  GOMAXPROCS %d  load %s  seed %d\n",
		m.Commit, m.GoVersion, m.CPUModel, m.NumCPU, m.GOMAXPROCS, m.LoadAvg, m.Seed)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, res := range r.Results {
		fmt.Fprintf(tw, "\n%s\t(%s, %d rounds)\tmodel %s\tfailed_share %d/%d\t\n",
			res.Workload.Name, res.Workload.Scheme, res.Workload.Rounds, res.ModelHash, res.Failed, res.Attempted)
		if !res.Trace {
			fmt.Fprintf(tw, "  box_speed\t%.4f\tx\ttimings below are measured seconds x this (speed.go)\t\n", res.BoxSpeed)
		}
		for _, f := range res.Failures {
			fmt.Fprintf(tw, "  FAILED\t%s\t\n", f)
		}
		for _, d := range res.defs() {
			v, ok := res.Metrics[d.Name]
			if !ok {
				continue
			}
			spread := ""
			if s := v.Spread; s != nil {
				spread = fmt.Sprintf("n=%d min %.4g q1 %.4g med %.4g q3 %.4g max %.4g", s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max)
			}
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\t%s\n", d.Name, v.Value, v.Unit, spread, v.Note)
		}
	}
	if len(r.Results) > 1 {
		fmt.Fprint(tw, "\nmetric\tunit")
		for _, res := range r.Results {
			fmt.Fprintf(tw, "\t%s", res.Workload.Name)
		}
		fmt.Fprintln(tw)
		for _, d := range r.Results[0].defs() {
			fmt.Fprintf(tw, "%s\t%s", d.Name, d.Unit)
			for _, res := range r.Results {
				fmt.Fprintf(tw, "\t%.5g", res.Metrics[d.Name].Value)
			}
			fmt.Fprintln(tw)
		}
		fmt.Fprint(tw, "failed_share\tratio")
		for _, res := range r.Results {
			fmt.Fprintf(tw, "\t%.3g", res.failedShare())
		}
		fmt.Fprintln(tw)
	}
	tw.Flush() //nolint:errcheck // a tabwriter over stdout: a failed print is not worth failing a measurement for
}

// driverLine is the last line of standard output of a single-workload run.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) driverLine() driverLine {
	l := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverValue{}}
	for name, v := range r.Metrics {
		l.Metrics[name] = driverValue{Value: v.Value, Unit: v.Unit}
	}
	return l
}

// runSet measures every workload, each in a child process of its own so that
// peak_rss_mb and cpu_s belong to one workload.
func runSet(ctx context.Context, o options) ([]*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var results []*result
	for _, w := range workloads {
		args := []string{
			"-record", "-workload", w.Name,
			"-seed", fmt.Sprint(o.Seed),
			"-seconds", fmt.Sprint(o.Seconds), "-repeats", fmt.Sprint(o.Repeats),
		}
		if o.Trace {
			args = append(args, "-trace", "1")
		}
		if o.Smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.Name, err)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, fmt.Errorf("workload %s: result line: %w", w.Name, err)
		}
		fmt.Fprintf(os.Stderr, "bench: %s done (%d/%d failed)\n", w.Name, res.Failed, res.Attempted)
		results = append(results, &res)
	}
	return results, nil
}

var errFailed = errors.New("some training calls failed; see FAILED rows")

// checkCorrect fails when any result of a set carries a failed call.
func checkCorrect(results []*result) error {
	for _, res := range results {
		if !res.Correct {
			return errFailed
		}
	}
	return nil
}

func runAll(ctx context.Context, o options, out string) error {
	results, err := runSet(ctx, o)
	if err != nil {
		return err
	}
	rep := newReport(o, results)
	rep.print(os.Stdout)
	if out != "" {
		if err := rep.write(out); err != nil {
			return err
		}
	}
	return checkCorrect(results)
}

// aaRow is one metric x workload of an A/A run: the spread of the sets'
// values, (max - min) / median, against the metric's bound.
type aaRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Values   []float64 `json:"values"`
	Spread   float64   `json:"spread"`
	Bound    float64   `json:"bound"`
	Within   bool      `json:"within"`
}

// runAA runs n full sets of the same code. Same code must agree with itself:
// any metric whose set values spread wider than its bound, or any model
// hash that differs between sets, fails the run.
func runAA(ctx context.Context, o options, n int, out string) error {
	o.Trace = false // bounds exist for end-to-end metrics only
	var sets [][]*result
	for i := 0; i < n; i++ {
		fmt.Fprintf(os.Stderr, "bench: A/A set %d of %d\n", i+1, n)
		set, err := runSet(ctx, o)
		if err != nil {
			return err
		}
		sets = append(sets, set)
	}
	rep := newReport(o, sets[0])
	bad := 0
	for wi, first := range sets[0] {
		for _, set := range sets[1:] {
			if set[wi].ModelHash != first.ModelHash {
				fmt.Printf("%s: model hash %s differs from %s\n", first.Workload.Name, set[wi].ModelHash, first.ModelHash)
				bad++
			}
		}
		for _, d := range endToEnd {
			row := aaRow{Workload: first.Workload.Name, Metric: d.Name, Bound: d.Bound}
			for _, set := range sets {
				row.Values = append(row.Values, set[wi].Metrics[d.Name].Value)
			}
			s := summarize(row.Values)
			if s.Median != 0 {
				row.Spread = (s.Max - s.Min) / math.Abs(s.Median)
			}
			row.Within = row.Spread <= d.Bound
			if !row.Within {
				bad++
			}
			rep.AA = append(rep.AA, row)
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tspread of set values\tbound\t\tvalues")
	for _, row := range rep.AA {
		verdict := "ok"
		if !row.Within {
			verdict = "EXCEEDS"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%s\t%.6g\n", row.Workload, row.Metric, row.Spread, row.Bound, verdict, row.Values)
	}
	tw.Flush() //nolint:errcheck // stdout table, as in print
	if out != "" {
		if err := rep.write(out); err != nil {
			return err
		}
	}
	for _, set := range sets {
		if err := checkCorrect(set); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("A/A: %d metric x workload pairs disagree beyond their bound", bad)
	}
	return nil
}

// verdict of one metric on one workload between two reports.
type verdict string

const (
	better     verdict = "better"
	same       verdict = "same"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares one metric. A positive relative change is "worse" whatever
// the metric's direction. When either side's own spread (interquartile range
// over its median) is wider than the bound, the bound cannot resolve a
// difference: the verdict is unresolved unless the two sides' ranges are
// disjoint.
func judge(d metricDef, old, new value) (verdict, float64) {
	if old.Value == 0 {
		return same, 0
	}
	change := (new.Value - old.Value) / math.Abs(old.Value)
	if d.Better == "higher" {
		change = -change
	}
	if old.Spread != nil && new.Spread != nil &&
		math.Max(old.Spread.spread(), new.Spread.spread()) > d.Bound &&
		old.Spread.Min <= new.Spread.Max && new.Spread.Min <= old.Spread.Max {
		return unresolved, change
	}
	switch {
	case change > d.Bound:
		return worse, change
	case change < -d.Bound:
		return better, change
	}
	return same, change
}

// runDiff prints a verdict per workload and end-to-end metric and fails on
// any "worse" or on a higher failed_share.
func runDiff(oldPath, newPath string) error {
	if newPath == "" {
		return errors.New("usage: -diff old.json new.json")
	}
	oldRep, err := readReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := readReport(newPath)
	if err != nil {
		return err
	}
	if len(oldRep.Results) != len(newRep.Results) {
		return fmt.Errorf("reports hold %d and %d workloads", len(oldRep.Results), len(newRep.Results))
	}
	bad := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tunit\tchange (+ is worse)\tbound\tverdict")
	for i, o := range oldRep.Results {
		n := newRep.Results[i]
		if o.Workload != n.Workload || o.Trace || n.Trace {
			return fmt.Errorf("workload %d: definitions differ (%+v vs %+v) or a report is a traced pass; nothing to compare", i, o.Workload, n.Workload)
		}
		for _, d := range endToEnd {
			v, change := judge(d, o.Metrics[d.Name], n.Metrics[d.Name])
			if v == worse {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.2f%%\t%.2f%%\t%s\n", o.Workload.Name, d.Name,
				o.Metrics[d.Name].Value, n.Metrics[d.Name].Value, d.Unit, 100*change, 100*d.Bound, v)
		}
		fv := same
		if n.failedShare() > o.failedShare() {
			fv = worse
			bad++
		}
		fmt.Fprintf(tw, "%s\tfailed_share\t%.3g\t%.3g\tratio\t\t\t%s\n", o.Workload.Name, o.failedShare(), n.failedShare(), fv)
		if o.ModelHash != n.ModelHash {
			fmt.Fprintf(tw, "%s\tmodel hash\t%s\t%s\t\t\t\tarithmetic changed\n", o.Workload.Name, o.ModelHash, n.ModelHash)
		}
	}
	tw.Flush() //nolint:errcheck // stdout table, as in print
	if bad > 0 {
		return fmt.Errorf("%d regressions", bad)
	}
	return nil
}

// Command ppml-figures regenerates the evaluation of Section VI of the
// paper: every panel of Fig. 4, the centralized baseline, and the
// scalability sweep. Output is tab-separated, one block per experiment,
// suitable for plotting.
//
// Usage:
//
//	ppml-figures                    # all Fig. 4 panels + baseline
//	ppml-figures -panel c           # one panel
//	ppml-figures -panel baseline    # centralized benchmark accuracies
//	ppml-figures -panel scalability # learner-count sweep
//	ppml-figures -panel elastic -json BENCH_elastic.json
//	                                # the straggler-recovery measurement
//	                                # and its JSON report
//	ppml-figures -paper-scale       # full Section VI data sizes (slow)
//	ppml-figures -distributed       # run on the simulated cluster with
//	                                # secure aggregation instead of in-process
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"

	"github.com/ppml-go/ppml"
	"github.com/ppml-go/ppml/internal/experiments"
)

// outDir receives per-experiment CSV files when -csv is set.
var outDir string

func main() {
	// Ctrl-C cancels the context; long sweeps unwind mid-round instead of
	// running out their budgets.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ppml-figures:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) (err error) {
	fs := flag.NewFlagSet("ppml-figures", flag.ContinueOnError)
	panel := fs.String("panel", "all", "a..h, baseline, scalability, elastic, or all")
	paperScale := fs.Bool("paper-scale", false, "use the full Section VI data sizes (slow)")
	distributed := fs.Bool("distributed", false, "run on the simulated cluster with secure aggregation")
	iterations := fs.Int("iterations", 0, "override the iteration budget")
	learners := fs.Int("learners", 0, "override the learner count M")
	seed := fs.Int64("seed", 0, "override the random seed")
	csvDir := fs.String("csv", "", "also write each experiment as CSV into this directory")
	jsonPath := fs.String("json", "", "with -panel elastic, also write its report as JSON to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	metricsAddr := fs.String("metrics-addr", "",
		"serve live /metrics (Prometheus), /debug/vars and /debug/pprof on this address while the experiments run (e.g. 127.0.0.1:9090; :0 picks a free port)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jsonPath != "" && *panel != "elastic" {
		return fmt.Errorf("-json needs the panel that produces a report (elastic), not %q", *panel)
	}
	if *cpuProfile != "" {
		f, createErr := os.Create(*cpuProfile)
		if createErr != nil {
			return createErr
		}
		// The profile is written at StopCPUProfile time (deferred below, so it
		// runs before this close); a failed close means a truncated profile
		// and must surface.
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("cpuprofile: %w", cerr)
			}
		}()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}
	outDir = *csvDir

	opts := experiments.Defaults()
	if *paperScale {
		opts = experiments.PaperScale()
	}
	opts.Distributed = *distributed
	if *iterations > 0 {
		opts.Iterations = *iterations
	}
	if *learners > 0 {
		opts.Learners = *learners
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	if *metricsAddr != "" {
		tel := ppml.NewTelemetry()
		ln, lnErr := net.Listen("tcp", *metricsAddr)
		if lnErr != nil {
			return fmt.Errorf("metrics listener: %w", lnErr)
		}
		srv := &http.Server{Handler: tel.Handler()}
		go func() { _ = srv.Serve(ln) }() // server lifetime is the process; Serve returns on Close
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", ln.Addr())
		opts.Telemetry = tel
	}

	switch *panel {
	case "all":
		for _, id := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
			if err := printPanel(id, opts); err != nil {
				return err
			}
		}
		return printBaseline(opts)
	case "baseline":
		return printBaseline(opts)
	case "scalability":
		return printScalability(opts)
	case "elastic":
		report, err := printElastic(ctx, opts)
		if err != nil || *jsonPath == "" {
			return err
		}
		return writeJSON(*jsonPath, report)
	default:
		if len(*panel) == 1 && strings.Contains("abcdefgh", *panel) {
			return printPanel(*panel, opts)
		}
		return fmt.Errorf("unknown panel %q (want a..h, baseline, scalability, elastic, all)", *panel)
	}
}

// writeJSON stores a panel's report, indented, at path — the data behind the
// BENCH_<panel>.json files.
func writeJSON(path string, report any) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

func printPanel(id string, opts experiments.Options) error {
	p, err := experiments.RunPanel(id, opts)
	if err != nil {
		return err
	}
	if err := experiments.WritePanel(os.Stdout, p); err != nil {
		return err
	}
	fmt.Println()
	if outDir != "" {
		if err := writePanelCSV(p); err != nil {
			return err
		}
	}
	return nil
}

// writePanelCSV stores the panel as fig4<id>.csv: iter, then per data set a
// Δz² column and an accuracy column.
func writePanelCSV(p *experiments.Panel) (err error) {
	f, err := os.Create(filepath.Join(outDir, "fig4"+p.ID+".csv"))
	if err != nil {
		return err
	}
	// The file is written, so a failed close can mean lost data; report it
	// unless an earlier error already explains the failure.
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	w := csv.NewWriter(f)
	header := []string{"iter"}
	for _, s := range p.Series {
		header = append(header, s.Dataset+"_dz2", s.Dataset+"_acc")
	}
	if err := w.Write(header); err != nil {
		return err
	}
	rows := 0
	for _, s := range p.Series {
		if len(s.DeltaZSq) > rows {
			rows = len(s.DeltaZSq)
		}
	}
	for t := 0; t < rows; t++ {
		rec := []string{strconv.Itoa(t + 1)}
		for _, s := range p.Series {
			rec = append(rec, csvAt(s.DeltaZSq, t), csvAt(s.Accuracy, t))
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

func csvAt(vals []float64, t int) string {
	if t >= len(vals) {
		return ""
	}
	return strconv.FormatFloat(vals[t], 'g', -1, 64)
}

func printBaseline(opts experiments.Options) error {
	rows, err := experiments.RunBaseline(opts)
	if err != nil {
		return err
	}
	fmt.Println("# Centralized SVM benchmark (Section VI in-text)")
	fmt.Println("dataset\tkernel\taccuracy\tpaper")
	for _, r := range rows {
		fmt.Printf("%s\t%s\t%.3f\t%.2f\n", r.Dataset, r.Kernel, r.Accuracy, r.PaperAccuracy)
	}
	fmt.Println()
	return nil
}

// printElastic runs the straggler-recovery benchmark (demote-and-continue vs
// abort-and-restart at each injected delay) and returns the report — the data
// behind BENCH_elastic.json.
func printElastic(ctx context.Context, opts experiments.Options) (*experiments.ElasticReport, error) {
	m := opts.Learners
	if m < 3 {
		m = 16
	}
	report, err := experiments.RunElastic(ctx, m)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# Elastic rounds: demote-and-continue vs abort-and-restart, M=%d, %d rounds of %.0fms work, straggler from round %d, timeout %.0fms\n",
		report.Learners, report.Rounds, report.WorkMs, report.FaultAtRound,
		report.StragglerTimeoutMs)
	fmt.Println("delay_ms\tdemote_total_ms\tdemote_round_ms\tdemotions\tabort_total_ms\tabort_round_ms\trestarted\tspeedup")
	for _, p := range report.Points {
		fmt.Printf("%.0f\t%.1f\t%.2f\t%d\t%.1f\t%.2f\t%t\t%.2fx\n",
			p.StragglerDelayMs, p.DemoteTotalMs, p.DemoteRoundMs, p.Demotions,
			p.AbortTotalMs, p.AbortRoundMs, p.Restarted, p.Speedup)
	}
	fmt.Println()
	return report, nil
}

func printScalability(opts experiments.Options) error {
	rows, err := experiments.RunScalability(opts, []int{1, 2, 4, 8, 16})
	if err != nil {
		return err
	}
	fmt.Println("# Scalability: horizontal linear on cancer, distributed with secure aggregation")
	fmt.Println("learners\titerations\tseconds\tmessages\tbytes\taccuracy")
	for _, r := range rows {
		fmt.Printf("%d\t%d\t%.2f\t%d\t%d\t%.3f\n",
			r.Learners, r.Iterations, r.Seconds, r.Messages, r.Bytes, r.Accuracy)
	}
	fmt.Println()
	return nil
}

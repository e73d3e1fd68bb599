// Command bench is the repository's benchmark: seven consensus-training
// workloads measured end to end (tracing off) and, in a separate traced pass,
// layer by layer. BENCHMARK.json at the repository root names this command,
// the workloads and the metrics; README.md in this directory explains them.
//
//	go run ./bench -workload hl_rows -seed 3 -seconds 12 -trace 0  # one run, as the driver makes it
//	go run ./bench -workload all -out bench.json                   # every workload, a report file
//	go run ./bench -workload all -trace 1                          # the per-layer pass
//	go run ./bench -aa 3                                           # A/A: three sets of the same code
//	go run ./bench -diff old.json new.json                         # verdict per workload and metric
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"

	"github.com/ppml-go/ppml/internal/parallel"
)

func main() {
	var (
		name    = flag.String("workload", "all", "workload `name`, or all")
		seed    = flag.Int64("seed", 1, "perturbs every input value; reaches only the input generators, never the program under test")
		seconds = flag.Float64("seconds", defaultSeconds, "timed training calls repeat until this much wall-clock is spent (at least 3 calls)")
		repeats = flag.Int("repeats", 0, "fix the number of timed training calls instead of -seconds")
		trace   = flag.Int("trace", 0, "1 runs the per-layer pass (tap, ladder, replay) instead of the end-to-end pass")
		smoke   = flag.Bool("smoke", false, "tiny shapes (200 rows, 3 rounds), gates off: checks the harness, measures nothing")
		out     = flag.String("out", "", "also write the report as JSON to this `file`")
		aa      = flag.Int("aa", 0, "run `N` full sets of the same code and fail if their values disagree beyond the bounds")
		diff    = flag.String("diff", "", "compare report `old.json` with the report named by the next argument")
		record  = flag.Bool("record", false, "print the full result record as the last line (what -workload all reads from its children)")
	)
	flag.Parse()

	// The reference configuration: GOMAXPROCS = min(nproc, 4), the compute
	// pool at its defaults whatever PPML_WORKERS / PPML_PAR_THRESHOLD say.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	parallel.SetWorkers(runtime.GOMAXPROCS(0))
	parallel.SetThreshold(parallel.DefaultThreshold)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	o := options{Seed: *seed, Seconds: *seconds, Repeats: *repeats, Trace: *trace != 0, Smoke: *smoke}
	if o.Smoke && o.Repeats == 0 {
		o.Repeats = 1
	}
	var err error
	switch {
	case *diff != "":
		err = runDiff(*diff, flag.Arg(0))
	case *aa > 0:
		err = runAA(ctx, o, *aa, *out)
	case *name == "all":
		err = runAll(ctx, o, *out)
	default:
		err = runOne(ctx, *name, o, *out, *record)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process and prints, as the last line
// of standard output, the result object the driver reads.
func runOne(ctx context.Context, name string, o options, out string, record bool) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if o.Smoke {
		w = w.smoke()
	}
	pass := measureEndToEnd
	if o.Trace {
		pass = measureLayers
	}
	res, err := pass(ctx, w, o)
	if err != nil {
		return err
	}
	rep := newReport(o, []*result{res})
	rep.print(os.Stdout)
	if out != "" {
		if err := rep.write(out); err != nil {
			return err
		}
	}
	var line []byte
	if record {
		line, err = json.Marshal(res)
	} else {
		line, err = json.Marshal(res.driverLine())
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

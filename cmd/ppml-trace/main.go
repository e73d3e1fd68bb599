// Command ppml-trace merges flight-recorder journal dumps into cross-node
// round timelines with critical-path straggler attribution.
//
// Usage:
//
//	ppml-trace journal-*.json              # merge per-node dumps, print summary
//	ppml-trace -chrome trace.json dump.json
//	ppml-trace -fixture                    # built-in chaos run, no dumps needed
//
// Inputs are journal dumps in the JSON shape served at /debug/ppml/journal
// (enable the recorder with PPML_JOURNAL_RING=<capacity>) and auto-dumped on
// driver abort when PPML_JOURNAL_DUMP=<dir> is set. Dumps are joined by
// TraceID — the session identity the reducer mints and every frame echoes —
// so per-node dumps of the same job land on one timeline. For every round the
// tool names the critical-path node (the mapper whose share the reducer
// folded last) and splits its time into solve / mask / network / wait, with a
// p50/p99 segment summary across rounds.
//
// -chrome writes the timeline in Chrome trace-event format, loadable in the
// Perfetto UI (ui.perfetto.dev) or chrome://tracing.
//
// -fixture runs the built-in chaos scenario instead of reading dumps: an
// averaging job with a seeded flaky link on the last mapper (1 ms base,
// 60 ms tail at p=0.25, one slow link among steady ones), so the tool can
// be exercised end to end without a cluster.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"

	"github.com/ppml-go/ppml/internal/traceview"
)

func main() {
	if err := run(context.Background(), os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ppml-trace:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("ppml-trace", flag.ContinueOnError)
	fixture := fs.Bool("fixture", false, "run the built-in chaos fixture instead of reading dumps")
	fixtureM := fs.Int("fixture-mappers", 4, "fixture mapper count")
	fixtureRounds := fs.Int("fixture-rounds", 40, "fixture round count")
	chromeOut := fs.String("chrome", "", "write the timeline as Chrome trace-event JSON to this file ('-' for stdout)")
	noSummary := fs.Bool("no-summary", false, "suppress the text summary")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var dumps []*traceview.Dump
	switch {
	case *fixture:
		raw, flaky, err := traceview.RunChaosFixture(ctx, *fixtureM, *fixtureRounds)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fixture: %d mappers, %d rounds, flaky link on %s\n",
			*fixtureM, *fixtureRounds, flaky)
		d, err := readDumpBytes(raw)
		if err != nil {
			return err
		}
		dumps = append(dumps, d)
	case fs.NArg() == 0:
		fs.Usage()
		return fmt.Errorf("no journal dumps given (or use -fixture)")
	default:
		for _, path := range fs.Args() {
			d, err := readDumpFile(path)
			if err != nil {
				return err
			}
			dumps = append(dumps, d)
		}
	}

	timelines := traceview.Merge(dumps...)
	if len(timelines) == 0 {
		return fmt.Errorf("no journaled events in the given dumps")
	}
	for i, tl := range timelines {
		if !*noSummary {
			if i > 0 {
				fmt.Println()
			}
			if err := traceview.WriteSummary(os.Stdout, tl); err != nil {
				return err
			}
		}
	}
	if *chromeOut != "" {
		// Chrome trace files hold one timeline; with several traced sessions
		// in the dumps, the first (earliest) is written.
		tl := timelines[0]
		if len(timelines) > 1 {
			fmt.Fprintf(os.Stderr, "note: %d traced sessions merged; -chrome writes the earliest (%s)\n",
				len(timelines), tl.Trace)
		}
		out := os.Stdout
		if *chromeOut != "-" {
			f, err := os.Create(*chromeOut)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		if err := traceview.WriteChromeTrace(out, tl); err != nil {
			return err
		}
		if *chromeOut != "-" {
			fmt.Fprintf(os.Stderr, "wrote Chrome trace to %s (load at ui.perfetto.dev)\n", *chromeOut)
		}
	}
	return nil
}

func readDumpFile(path string) (*traceview.Dump, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return traceview.ReadDump(f)
}

func readDumpBytes(raw []byte) (*traceview.Dump, error) {
	return traceview.ReadDump(bytes.NewReader(raw))
}

// Command ppml-train trains one of the four privacy-preserving consensus
// schemes on a CSV or LIBSVM file and reports test accuracy and convergence.
//
// Usage:
//
//	ppml-train -data records.csv -scheme horizontal-linear -learners 4
//	ppml-train -data higgs.libsvm -format libsvm -scheme horizontal-kernel \
//	    -kernel rbf:0.05 -landmarks 40 -distributed
//
// The input is split 50/50 into train/test (like Section VI) unless -split
// overrides the fraction, and features are standardized on the training
// statistics.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"github.com/ppml-go/ppml"
	"github.com/ppml-go/ppml/internal/experiments"
	"github.com/ppml-go/ppml/internal/kernel"
	"github.com/ppml-go/ppml/internal/telemetry"
)

func main() {
	// Ctrl-C cancels the context; every simulated node unwinds mid-round
	// instead of training out the iteration budget.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ppml-train:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("ppml-train", flag.ContinueOnError)
	dataPath := fs.String("data", "", "path to the training file (required)")
	format := fs.String("format", "csv", "input format: csv or libsvm")
	schemeName := fs.String("scheme", ppml.HorizontalLinear.String(), "one of "+strings.Join(ppml.SchemeNames(), ", "))
	kernelSpec := fs.String("kernel", "rbf:0.1",
		"kernel for the nonlinear schemes: linear, rbf:<gamma>, poly:<a>:<b>:<d>, sigmoid:<a>:<c>")
	learners := fs.Int("learners", 4, "number of collaborating learners M")
	c := fs.Float64("c", 50, "slack penalty C")
	rho := fs.Float64("rho", 100, "ADMM penalty rho")
	iterations := fs.Int("iterations", 100, "consensus iteration budget")
	tol := fs.Float64("tol", 0, "early-stop tolerance on |dz|^2 (0: run the budget)")
	landmarks := fs.Int("landmarks", 20, "landmark count for horizontal-kernel")
	seed := fs.Int64("seed", 1, "random seed for partitioning")
	split := fs.Float64("split", 0.5, "training fraction of the input")
	distributed := fs.Bool("distributed", false, "run Mappers/Reducer as message-passing nodes")
	tcp := fs.Bool("tcp", false, "distributed mode over loopback TCP")
	plain := fs.Bool("plain-aggregation", false, "disable secure summation (no privacy)")
	stragglerTimeout := fs.Duration("straggler-timeout", 0,
		"elastic rounds (implies -distributed): demote learners that miss this deadline and continue on the live roster; 0 keeps strict fixed membership")
	minQuorum := fs.Int("min-quorum", 0,
		"smallest live roster an elastic round may fold (0: 2 under masked aggregation, 1 otherwise)")
	chunkRows := fs.Int("chunk-rows", 0,
		"minibatch rounds: solve over row chunks of this size instead of full partitions (0: full batch)")
	trace := fs.Bool("trace", false, "print per-iteration |dz|^2 and accuracy")
	metricsAddr := fs.String("metrics-addr", "",
		"serve live /metrics (Prometheus), /debug/vars and /debug/pprof on this address while training (e.g. 127.0.0.1:9090; :0 picks a free port)")
	metricsLinger := fs.Duration("metrics-linger", 0,
		"keep the metrics endpoint up this long after training finishes, so a scraper can catch a short run")
	modelOut := fs.String("model-out", "", "write the trained model to this JSON file")
	loadModel := fs.String("load-model", "", "skip training: load this model and evaluate it on -data")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataPath == "" {
		return fmt.Errorf("-data is required")
	}

	f, err := os.Open(*dataPath)
	if err != nil {
		return err
	}
	defer f.Close()
	var data *ppml.Dataset
	switch *format {
	case "csv":
		data, err = ppml.LoadCSV(f, *dataPath)
	case "libsvm":
		data, err = ppml.LoadLIBSVM(f, *dataPath, 0)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		return err
	}

	scheme, err := ppml.ParseScheme(*schemeName)
	if err != nil {
		return err
	}

	if *loadModel != "" {
		mf, err := os.Open(*loadModel)
		if err != nil {
			return err
		}
		defer mf.Close()
		model, scaler, err := ppml.LoadModelWithScaler(mf)
		if err != nil {
			return err
		}
		if scaler != nil {
			if err := scaler.Apply(data); err != nil {
				return err
			}
		}
		acc, err := ppml.Evaluate(model, data)
		if err != nil {
			return err
		}
		fmt.Printf("model        %s\n", *loadModel)
		fmt.Printf("samples      %d\n", data.Len())
		fmt.Printf("accuracy     %.4f\n", acc)
		return nil
	}

	train, test, err := data.Split(*split)
	if err != nil {
		return err
	}
	scaler, err := ppml.Standardize(train, test)
	if err != nil {
		return err
	}

	opts := []ppml.Option{
		ppml.WithLearners(*learners),
		ppml.WithC(*c),
		ppml.WithRho(*rho),
		ppml.WithIterations(*iterations),
		ppml.WithLandmarks(*landmarks),
		ppml.WithSeed(*seed),
		ppml.WithEvalSet(test),
	}
	if *tol > 0 {
		opts = append(opts, ppml.WithTolerance(*tol))
	}
	if scheme == ppml.HorizontalKernel || scheme == ppml.VerticalKernel {
		k, err := parseKernel(*kernelSpec)
		if err != nil {
			return err
		}
		opts = append(opts, ppml.WithKernel(k))
	}
	switch {
	case *tcp:
		opts = append(opts, ppml.WithTCP())
	case *distributed:
		opts = append(opts, ppml.WithDistributed())
	}
	if *plain {
		opts = append(opts, ppml.WithPlainAggregation())
	}
	if *stragglerTimeout > 0 {
		opts = append(opts, ppml.WithStragglerTimeout(*stragglerTimeout))
	}
	if *minQuorum > 0 {
		opts = append(opts, ppml.WithMinQuorum(*minQuorum))
	}
	if *chunkRows > 0 {
		opts = append(opts, ppml.WithMinibatch(*chunkRows))
	}

	var tel *ppml.Telemetry
	if *metricsAddr != "" {
		tel = ppml.NewTelemetry()
		// Stamp run attribution so every snapshot, journal dump, and
		// /debug/vars scrape is traceable to a commit and a machine.
		meta := experiments.CollectMeta()
		tel.Registry().SetRunInfo(telemetry.RunInfo{
			Commit:     meta.Commit,
			GoVersion:  meta.GoVersion,
			CPUModel:   meta.CPUModel,
			GOMAXPROCS: meta.GOMAXPROCS,
		})
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		srv := &http.Server{Handler: tel.Handler()}
		go func() { _ = srv.Serve(ln) }() // server lifetime is the process; Serve returns on Close
		defer srv.Close()
		fmt.Printf("metrics      http://%s/metrics\n", ln.Addr())
		opts = append(opts, ppml.WithTelemetry(tel))
	}

	res, err := ppml.TrainContext(ctx, train, scheme, opts...)
	if err != nil {
		return err
	}
	acc, err := ppml.Evaluate(res.Model, test)
	if err != nil {
		return err
	}

	fmt.Printf("scheme       %s\n", res.Scheme)
	fmt.Printf("learners     %d\n", res.Learners)
	fmt.Printf("train/test   %d/%d samples, %d features\n", train.Len(), test.Len(), train.Features())
	fmt.Printf("iterations   %d (converged: %v)\n", res.History.Iterations, res.History.Converged)
	fmt.Printf("accuracy     %.4f\n", acc)
	fmt.Printf("elapsed      %.2fs\n", res.History.ElapsedSeconds)
	if res.History.BytesSent > 0 {
		fmt.Printf("traffic      %d messages, %d bytes\n", res.History.MessagesSent, res.History.BytesSent)
	}
	if *trace {
		fmt.Println("iter\t|dz|^2\taccuracy")
		for t := range res.History.DeltaZSq {
			fmt.Printf("%d\t%.6g\t%.4f\n", t+1, res.History.DeltaZSq[t], res.History.Accuracy[t])
		}
	}
	if *modelOut != "" {
		mf, err := os.Create(*modelOut)
		if err != nil {
			return err
		}
		if err := ppml.SaveModelWithScaler(mf, res.Model, scaler); err != nil {
			mf.Close()
			return err
		}
		if err := mf.Close(); err != nil {
			return err
		}
		fmt.Printf("model saved  %s\n", *modelOut)
	}
	if tel != nil && *metricsLinger > 0 {
		// Short runs finish before a scraper's first pass; hold the
		// endpoint open so the final counters remain observable.
		select {
		case <-time.After(*metricsLinger):
		case <-ctx.Done():
		}
	}
	return nil
}

// parseKernel reads the -kernel flag through kernel.Parse, the parser model
// files go through, so both reject the same specs.
func parseKernel(spec string) (ppml.Kernel, error) {
	k, err := kernel.Parse(spec)
	if err != nil {
		return ppml.Kernel{}, err
	}
	switch kk := k.(type) {
	case kernel.RBF:
		return ppml.RBFKernel(kk.Gamma), nil
	case kernel.Polynomial:
		return ppml.PolynomialKernel(kk.A, kk.B, kk.Degree), nil
	case kernel.Sigmoid:
		return ppml.SigmoidKernel(kk.A, kk.C), nil
	}
	return ppml.LinearKernel(), nil
}

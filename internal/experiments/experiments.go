// Package experiments regenerates the paper's evaluation (Section VI): every
// panel of Fig. 4, the in-text centralized benchmark, and the scalability
// claim (the crypto-overhead and data-locality claims are root-level
// benchmarks of their own). It is shared by cmd/ppml-figures and the
// root-level benchmarks so both report identical numbers.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/ppml-go/ppml"
	"github.com/ppml-go/ppml/internal/telemetry"
	"github.com/ppml-go/ppml/internal/transport"
)

// ErrUnknownExperiment is returned for an unrecognized panel id.
var ErrUnknownExperiment = errors.New("experiments: unknown experiment")

// Options sets the experiment scale. The paper's parameters are the
// defaults; data-set sizes default to laptop-friendly subsets (the paper
// itself subsamples HIGGS to 11,000 of 11M rows).
type Options struct {
	// CancerN, HiggsN, OCRN are the generated sample counts.
	CancerN, HiggsN, OCRN int
	// Learners is M (paper: 4).
	Learners int
	// C and Rho are the SVM and ADMM parameters (paper: 50 and 100).
	C, Rho float64
	// Iterations is the consensus budget (paper plots 100).
	Iterations int
	// Landmarks is l for the horizontal kernel scheme.
	Landmarks int
	// Seed fixes all randomness.
	Seed int64
	// Distributed runs every experiment over the simulated cluster with
	// secure aggregation instead of the in-process engine.
	Distributed bool
	// Telemetry, when non-nil, is the shared registry every experiment
	// records into — point a live /metrics endpoint at it to watch a sweep.
	// When nil each run uses a private registry; either way the traffic
	// columns below are sourced from the transport telemetry counters.
	Telemetry *ppml.Telemetry
}

// Defaults returns the paper's parameters at reduced data scale, sized so
// the full Fig. 4 suite completes in minutes on one core.
func Defaults() Options {
	return Options{
		CancerN:    569, // full original size
		HiggsN:     1200,
		OCRN:       1000,
		Learners:   4,
		C:          50,
		Rho:        100,
		Iterations: 100,
		Landmarks:  30,
		Seed:       1,
	}
}

// PaperScale returns the full Section VI sizes: cancer 569, HIGGS 11,000,
// OCR 5,620. Expect long run times on a small machine.
func PaperScale() Options {
	o := Defaults()
	o.HiggsN = 11000
	o.OCRN = 5620
	return o
}

// Series is one curve of a Fig. 4 panel.
type Series struct {
	Dataset  string
	DeltaZSq []float64
	Accuracy []float64
}

// Panel is one subfigure of Fig. 4.
type Panel struct {
	ID    string
	Title string
	// Series are ordered ocr, cancer, higgs like the paper's legends.
	Series []Series
}

// runTelemetry returns the registry a training run records into: the shared
// one when the caller provided it, else a fresh private registry.
func (o Options) runTelemetry() *ppml.Telemetry {
	if o.Telemetry != nil {
		return o.Telemetry
	}
	return ppml.NewTelemetry()
}

// sentTotals reads the cumulative sent-side transport counters. Message and
// byte totals use the same definition as transport.Stats (payload bytes, one
// count per Send), so a before/after delta reproduces the History numbers
// exactly — but from the same counters the live /metrics endpoint serves.
func sentTotals(t *ppml.Telemetry) (msgs, bytes int64) {
	snap := t.Snapshot()
	sent := telemetry.L("dir", "sent")
	return snap.CounterTotal(transport.MetricMsgs, sent),
		snap.CounterTotal(transport.MetricBytes, sent)
}

// workload bundles a prepared train/test pair with its per-data-set kernel.
type workload struct {
	name   string
	train  *ppml.Dataset
	test   *ppml.Dataset
	kernel ppml.Kernel
}

// workloads prepares the three Section VI data sets: 50/50 split,
// standardized on training statistics, RBF γ = 1/#features for the kernel
// schemes.
func workloads(o Options) ([]workload, error) {
	gens := []struct {
		name string
		data *ppml.Dataset
	}{
		{"ocr", ppml.SyntheticOCR(o.OCRN, o.Seed)},
		{"cancer", ppml.SyntheticCancer(o.CancerN, o.Seed)},
		{"higgs", ppml.SyntheticHiggs(o.HiggsN, o.Seed)},
	}
	out := make([]workload, 0, len(gens))
	for _, g := range gens {
		train, test, err := g.data.Split(0.5)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", g.name, err)
		}
		if _, err := ppml.Standardize(train, test); err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", g.name, err)
		}
		out = append(out, workload{
			name:   g.name,
			train:  train,
			test:   test,
			kernel: ppml.RBFKernel(1 / float64(train.Features())),
		})
	}
	return out, nil
}

// schemeOf maps a Fig. 4 panel to its training scheme.
func schemeOf(id string) (ppml.Scheme, string, error) {
	switch id {
	case "a", "e":
		return ppml.HorizontalLinear, "linear horizontal", nil
	case "b", "f":
		return ppml.HorizontalKernel, "nonlinear horizontal", nil
	case "c", "g":
		return ppml.VerticalLinear, "linear vertical", nil
	case "d", "h":
		return ppml.VerticalKernel, "nonlinear vertical", nil
	}
	return 0, "", fmt.Errorf("%w: panel %q", ErrUnknownExperiment, id)
}

// RunPanel regenerates one Fig. 4 panel: (a)–(d) report ‖z_{t+1}−z_t‖² per
// iteration, (e)–(h) the correct-classification ratio; both come from the
// same training runs, so requesting panel "a" also fills the accuracies.
func RunPanel(id string, o Options) (*Panel, error) {
	scheme, desc, err := schemeOf(id)
	if err != nil {
		return nil, err
	}
	ws, err := workloads(o)
	if err != nil {
		return nil, err
	}
	metric := "‖z(t+1)−z(t)‖²"
	if id >= "e" {
		metric = "correct ratio"
	}
	panel := &Panel{ID: id, Title: fmt.Sprintf("%s, %s", metric, desc)}
	for _, w := range ws {
		opts := []ppml.Option{
			ppml.WithLearners(o.Learners),
			ppml.WithC(o.C),
			ppml.WithRho(o.Rho),
			ppml.WithIterations(o.Iterations),
			ppml.WithLandmarks(o.Landmarks),
			ppml.WithSeed(o.Seed),
			ppml.WithEvalSet(w.test),
		}
		if scheme == ppml.HorizontalKernel || scheme == ppml.VerticalKernel {
			opts = append(opts, ppml.WithKernel(w.kernel))
		}
		if o.Distributed {
			opts = append(opts, ppml.WithDistributed())
		}
		res, err := ppml.Train(w.train, scheme, opts...)
		if err != nil {
			return nil, fmt.Errorf("experiments: panel %s on %s: %w", id, w.name, err)
		}
		panel.Series = append(panel.Series, Series{
			Dataset:  w.name,
			DeltaZSq: res.History.DeltaZSq,
			Accuracy: res.History.Accuracy,
		})
	}
	return panel, nil
}

// BaselineRow is one line of the in-text centralized benchmark.
type BaselineRow struct {
	Dataset  string
	Kernel   string
	Accuracy float64
	// PaperAccuracy is what Section VI reports for the original data.
	PaperAccuracy float64
}

// RunBaseline reproduces the centralized SVM benchmark accuracies the paper
// quotes in Section VI (cancer ≈ 95%, higgs ≈ 70%, ocr ≈ 98%).
func RunBaseline(o Options) ([]BaselineRow, error) {
	ws, err := workloads(o)
	if err != nil {
		return nil, err
	}
	paper := map[string]float64{"cancer": 0.95, "higgs": 0.70, "ocr": 0.98}
	rows := make([]BaselineRow, 0, len(ws))
	for _, w := range ws {
		opts := []ppml.Option{ppml.WithC(o.C)}
		kname := "linear"
		if w.name == "ocr" {
			opts = append(opts, ppml.WithKernel(w.kernel))
			kname = "rbf"
		}
		res, err := ppml.TrainCentralized(w.train, opts...)
		if err != nil {
			return nil, fmt.Errorf("experiments: baseline %s: %w", w.name, err)
		}
		acc, err := ppml.Evaluate(res.Model, w.test)
		if err != nil {
			return nil, err
		}
		rows = append(rows, BaselineRow{
			Dataset:       w.name,
			Kernel:        kname,
			Accuracy:      acc,
			PaperAccuracy: paper[w.name],
		})
	}
	return rows, nil
}

// ScalabilityRow reports one cluster size of the scalability sweep.
type ScalabilityRow struct {
	Learners   int
	Iterations int
	Seconds    float64
	Messages   int64
	Bytes      int64
	Accuracy   float64
}

// RunScalability sweeps the learner count M for the horizontal linear
// scheme on the cancer workload, in full distributed mode, supporting the
// paper's scalability claim: per-node work shrinks with M while accuracy
// holds. Communication is one M(M−1)-message seed exchange per session plus
// a broadcast and a share per learner per round (DESIGN.md §10).
func RunScalability(o Options, learnerCounts []int) ([]ScalabilityRow, error) {
	ws, err := workloads(o)
	if err != nil {
		return nil, err
	}
	var cancer workload
	for _, w := range ws {
		if w.name == "cancer" {
			cancer = w
		}
	}
	rows := make([]ScalabilityRow, 0, len(learnerCounts))
	for _, m := range learnerCounts {
		opts := []ppml.Option{
			ppml.WithLearners(m),
			ppml.WithC(o.C), ppml.WithRho(o.Rho),
			ppml.WithIterations(o.Iterations),
			ppml.WithSeed(o.Seed),
			ppml.WithDistributed(),
		}
		tel := o.runTelemetry()
		msgs0, bytes0 := sentTotals(tel)
		opts = append(opts, ppml.WithTelemetry(tel))
		start := time.Now()
		res, err := ppml.Train(cancer.train, ppml.HorizontalLinear, opts...)
		if err != nil {
			return nil, fmt.Errorf("experiments: scalability M=%d: %w", m, err)
		}
		acc, err := ppml.Evaluate(res.Model, cancer.test)
		if err != nil {
			return nil, err
		}
		msgs1, bytes1 := sentTotals(tel)
		rows = append(rows, ScalabilityRow{
			Learners:   m,
			Iterations: res.History.Iterations,
			Seconds:    time.Since(start).Seconds(),
			Messages:   msgs1 - msgs0,
			Bytes:      bytes1 - bytes0,
			Accuracy:   acc,
		})
	}
	return rows, nil
}

// WritePanel prints a panel as aligned columns: iteration then one column
// per data set.
func WritePanel(w io.Writer, p *Panel) error {
	if _, err := fmt.Fprintf(w, "# Fig.4(%s): %s\n", p.ID, p.Title); err != nil {
		return err
	}
	if _, err := fmt.Fprint(w, "iter"); err != nil {
		return err
	}
	for _, s := range p.Series {
		if _, err := fmt.Fprintf(w, "\t%s", s.Dataset); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	rows := 0
	for _, s := range p.Series {
		if len(s.DeltaZSq) > rows {
			rows = len(s.DeltaZSq)
		}
	}
	useAccuracy := p.ID >= "e"
	for t := 0; t < rows; t++ {
		if _, err := fmt.Fprintf(w, "%d", t+1); err != nil {
			return err
		}
		for _, s := range p.Series {
			vals := s.DeltaZSq
			if useAccuracy {
				vals = s.Accuracy
			}
			if t < len(vals) {
				if _, err := fmt.Fprintf(w, "\t%.6g", vals[t]); err != nil {
					return err
				}
			} else if _, err := fmt.Fprint(w, "\t-"); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

package ppml_test

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/ppml-go/ppml"
	"github.com/ppml-go/ppml/internal/consensus"
)

func prepared(t *testing.T, n int) (train, test *ppml.Dataset) {
	t.Helper()
	data := ppml.SyntheticCancer(n, 1)
	train, test, err := data.Split(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ppml.Standardize(train, test); err != nil {
		t.Fatal(err)
	}
	return train, test
}

func TestNewDatasetValidation(t *testing.T) {
	if _, err := ppml.NewDataset("x", nil, nil); !errors.Is(err, ppml.ErrBadRequest) {
		t.Errorf("empty: err = %v, want ErrBadRequest", err)
	}
	if _, err := ppml.NewDataset("x", [][]float64{{1}}, []float64{1, 1}); !errors.Is(err, ppml.ErrBadRequest) {
		t.Errorf("length mismatch: err = %v, want ErrBadRequest", err)
	}
	if _, err := ppml.NewDataset("x", [][]float64{{1}, {1, 2}}, []float64{1, -1}); !errors.Is(err, ppml.ErrBadRequest) {
		t.Errorf("ragged rows: err = %v, want ErrBadRequest", err)
	}
	if _, err := ppml.NewDataset("x", [][]float64{{1}}, []float64{3}); !errors.Is(err, ppml.ErrBadRequest) {
		t.Errorf("bad label: err = %v, want ErrBadRequest", err)
	}
	d, err := ppml.NewDataset("x", [][]float64{{1, 2}, {3, 4}}, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if d.Label(1) != -1 {
		t.Error("label 0 must map to -1")
	}
	if d.Len() != 2 || d.Features() != 2 || d.Name() != "x" {
		t.Error("accessors wrong")
	}
	row := d.Row(0)
	row[0] = 99
	if d.Row(0)[0] == 99 {
		t.Error("Row must return a copy")
	}
}

func TestTrainAllSchemes(t *testing.T) {
	train, test := prepared(t, 240)
	for _, scheme := range []ppml.Scheme{
		ppml.HorizontalLinear, ppml.HorizontalKernel,
		ppml.VerticalLinear, ppml.VerticalKernel,
	} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			opts := []ppml.Option{
				ppml.WithLearners(3),
				ppml.WithIterations(20),
				ppml.WithEvalSet(test),
			}
			if scheme == ppml.HorizontalKernel || scheme == ppml.VerticalKernel {
				opts = append(opts, ppml.WithKernel(ppml.RBFKernel(0.1)), ppml.WithLandmarks(15))
			}
			res, err := ppml.Train(train, scheme, opts...)
			if err != nil {
				t.Fatal(err)
			}
			acc, err := ppml.Evaluate(res.Model, test)
			if err != nil {
				t.Fatal(err)
			}
			if acc < 0.8 {
				t.Errorf("%s accuracy = %g, want ≥ 0.8", scheme, acc)
			}
			if res.History.Iterations != 20 {
				t.Errorf("iterations = %d, want 20", res.History.Iterations)
			}
			if len(res.History.DeltaZSq) != 20 || len(res.History.Accuracy) != 20 {
				t.Error("history incomplete")
			}
			if res.Learners != 3 || res.Scheme != scheme {
				t.Error("result metadata wrong")
			}
		})
	}
}

func TestTrainValidation(t *testing.T) {
	train, _ := prepared(t, 100)
	if _, err := ppml.Train(nil, ppml.HorizontalLinear); !errors.Is(err, ppml.ErrBadRequest) {
		t.Errorf("nil data: err = %v, want ErrBadRequest", err)
	}
	if _, err := ppml.Train(train, ppml.Scheme(99)); !errors.Is(err, ppml.ErrBadRequest) {
		t.Errorf("bad scheme: err = %v, want ErrBadRequest", err)
	}
	if _, err := ppml.Train(train, ppml.HorizontalLinear, ppml.WithLearners(0)); !errors.Is(err, ppml.ErrBadRequest) {
		t.Errorf("0 learners: err = %v, want ErrBadRequest", err)
	}
	// A tolerance no residual can fall below is refused, not run to the
	// budget. The facade wraps the trainers' configuration error as is.
	if _, err := ppml.Train(train, ppml.HorizontalLinear, ppml.WithLearners(2), ppml.WithTolerance(math.NaN())); !errors.Is(err, consensus.ErrBadConfig) {
		t.Errorf("NaN tolerance: err = %v, want consensus.ErrBadConfig", err)
	}
}

func TestTrainDistributedSecureBeatsPlainTraffic(t *testing.T) {
	train, _ := prepared(t, 160)
	common := []ppml.Option{
		ppml.WithLearners(3), ppml.WithIterations(6), ppml.WithSeed(2),
	}
	secure, err := ppml.Train(train, ppml.HorizontalLinear,
		append(common, ppml.WithDistributed())...)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ppml.Train(train, ppml.HorizontalLinear,
		append(common, ppml.WithDistributed(), ppml.WithPlainAggregation())...)
	if err != nil {
		t.Fatal(err)
	}
	if secure.History.MessagesSent <= plain.History.MessagesSent {
		t.Errorf("secure aggregation sent %d messages, plain %d; masks must cost extra messages",
			secure.History.MessagesSent, plain.History.MessagesSent)
	}
	if secure.History.BytesSent == 0 || plain.History.BytesSent == 0 {
		t.Error("distributed runs must record traffic")
	}
}

func TestTrainOverTCP(t *testing.T) {
	train, test := prepared(t, 140)
	res, err := ppml.Train(train, ppml.HorizontalLinear,
		ppml.WithLearners(2), ppml.WithIterations(8), ppml.WithTCP())
	if err != nil {
		t.Fatal(err)
	}
	acc, err := ppml.Evaluate(res.Model, test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.8 {
		t.Errorf("TCP training accuracy = %g", acc)
	}
}

func TestTrainCentralizedBenchmark(t *testing.T) {
	train, test := prepared(t, 240)
	res, err := ppml.TrainCentralized(train, ppml.WithC(50))
	if err != nil {
		t.Fatal(err)
	}
	acc, err := ppml.Evaluate(res.Model, test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.88 {
		t.Errorf("centralized benchmark accuracy = %g", acc)
	}
	if !res.History.Converged {
		t.Error("the centralized solve on standardized data stopped at its update cap")
	}
}

// TestTrainCentralizedReportsUpdateCap: on raw, unstandardized features the
// linear dual solve of this 40-row draw runs to its update cap (about 0.1 s)
// short of its tolerance, and the result says so.
func TestTrainCentralizedReportsUpdateCap(t *testing.T) {
	res, err := ppml.TrainCentralized(ppml.SyntheticCancer(40, 2), ppml.WithC(50))
	if err != nil {
		t.Fatal(err)
	}
	if res.History.Converged {
		t.Error("History.Converged = true for a solve that stopped at its update cap")
	}
}

func TestCSVRoundTripThroughFacade(t *testing.T) {
	d := ppml.SyntheticHiggs(50, 3)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ppml.LoadCSV(&buf, "higgs")
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != d.Len() || back.Features() != d.Features() {
		t.Error("CSV round trip changed the shape")
	}
}

func TestLoadLIBSVMFacade(t *testing.T) {
	in := "+1 1:0.5 2:1\n-1 1:-0.5 2:-1\n"
	d, err := ppml.LoadLIBSVM(strings.NewReader(in), "ls", 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 || d.Features() != 2 {
		t.Errorf("LIBSVM shape %dx%d, want 2x2", d.Len(), d.Features())
	}
}

func TestSchemeString(t *testing.T) {
	if ppml.HorizontalLinear.String() != "horizontal-linear" {
		t.Error("Scheme.String wrong")
	}
	if !strings.Contains(ppml.Scheme(42).String(), "42") {
		t.Error("unknown scheme String should include the value")
	}
}

func TestWithToleranceStopsEarly(t *testing.T) {
	train, _ := prepared(t, 160)
	res, err := ppml.Train(train, ppml.HorizontalLinear,
		ppml.WithLearners(2), ppml.WithIterations(500), ppml.WithTolerance(1e-4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.History.Converged {
		t.Error("expected convergence flag")
	}
	if res.History.Iterations >= 500 {
		t.Error("tolerance did not stop training early")
	}
}

func TestWithDPOutput(t *testing.T) {
	train, test := prepared(t, 240)
	clean, err := ppml.Train(train, ppml.HorizontalLinear,
		ppml.WithLearners(2), ppml.WithIterations(20), ppml.WithC(1))
	if err != nil {
		t.Fatal(err)
	}
	cleanAcc, err := ppml.Evaluate(clean.Model, test)
	if err != nil {
		t.Fatal(err)
	}
	// Generous ε: the model barely moves, accuracy survives. (Sensitivity
	// is 2C, so small C keeps calibrated noise proportionate.)
	loose, err := ppml.Train(train, ppml.HorizontalLinear,
		ppml.WithLearners(2), ppml.WithIterations(20), ppml.WithC(1),
		ppml.WithDPOutput(1e6))
	if err != nil {
		t.Fatal(err)
	}
	looseAcc, err := ppml.Evaluate(loose.Model, test)
	if err != nil {
		t.Fatal(err)
	}
	if looseAcc < cleanAcc-0.05 {
		t.Errorf("huge-ε DP accuracy %g far below clean %g", looseAcc, cleanAcc)
	}
	// Brutal ε: expect noise to dominate on average. Run a few trials since
	// the mechanism is randomized.
	degraded := false
	for trial := 0; trial < 5; trial++ {
		tight, err := ppml.Train(train, ppml.HorizontalLinear,
			ppml.WithLearners(2), ppml.WithIterations(20), ppml.WithC(1),
			ppml.WithDPOutput(1e-3))
		if err != nil {
			t.Fatal(err)
		}
		tightAcc, err := ppml.Evaluate(tight.Model, test)
		if err != nil {
			t.Fatal(err)
		}
		if tightAcc < cleanAcc-0.1 {
			degraded = true
			break
		}
	}
	if !degraded {
		t.Error("ε=0.001 never degraded accuracy; noise not applied?")
	}
	// Kernel schemes refuse the option.
	if _, err := ppml.Train(train, ppml.HorizontalKernel,
		ppml.WithKernel(ppml.RBFKernel(0.1)), ppml.WithDPOutput(1),
		ppml.WithLearners(2), ppml.WithIterations(3)); !errors.Is(err, ppml.ErrBadRequest) {
		t.Errorf("kernel + DP: err = %v, want ErrBadRequest", err)
	}
}

func TestWithSecureStandardization(t *testing.T) {
	// Raw (unstandardized) data in, secure in-training standardization.
	data := ppml.SyntheticCancer(300, 8)
	train, test, err := data.Split(0.5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ppml.Train(train, ppml.HorizontalLinear,
		ppml.WithLearners(3), ppml.WithIterations(25),
		ppml.WithSecureStandardization(), ppml.WithEvalSet(test))
	if err != nil {
		t.Fatal(err)
	}
	if res.Scaler == nil {
		t.Fatal("secure standardization must return the fitted scaler")
	}
	// Evaluate on test data standardized with the securely fitted scaler.
	if err := res.Scaler.Apply(test); err != nil {
		t.Fatal(err)
	}
	acc, err := ppml.Evaluate(res.Model, test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 {
		t.Errorf("secure-standardized training accuracy = %g, want ≥ 0.85", acc)
	}
	// The per-iteration accuracy history must agree with the final accuracy
	// (the eval set was scaled internally).
	if last := res.History.Accuracy[len(res.History.Accuracy)-1]; last < 0.85 {
		t.Errorf("eval-history accuracy = %g; EvalSet not scaled internally?", last)
	}
	// Vertical schemes refuse the option.
	if _, err := ppml.Train(train, ppml.VerticalLinear,
		ppml.WithLearners(2), ppml.WithSecureStandardization()); !errors.Is(err, ppml.ErrBadRequest) {
		t.Errorf("vertical + secure standardization: err = %v, want ErrBadRequest", err)
	}
}

func TestWithMinibatchMatchesFullBatchBoundary(t *testing.T) {
	train, test := prepared(t, 240)
	full, err := ppml.Train(train, ppml.HorizontalLinear,
		ppml.WithLearners(3), ppml.WithIterations(40), ppml.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	mini, err := ppml.Train(train, ppml.HorizontalLinear,
		ppml.WithLearners(3), ppml.WithIterations(120), ppml.WithSeed(4),
		ppml.WithMinibatch(16))
	if err != nil {
		t.Fatal(err)
	}
	fa, err := ppml.Evaluate(full.Model, test)
	if err != nil {
		t.Fatal(err)
	}
	ma, err := ppml.Evaluate(mini.Model, test)
	if err != nil {
		t.Fatal(err)
	}
	if ma < fa-0.05 {
		t.Errorf("minibatch accuracy %g trails full batch %g", ma, fa)
	}
}

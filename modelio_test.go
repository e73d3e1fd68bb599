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

// trainEachScheme trains one small model per scheme plus the centralized
// baseline, for persistence round-trip testing.
func trainEachScheme(t *testing.T) map[string]*ppml.Result {
	t.Helper()
	train, _ := prepared(t, 160)
	out := make(map[string]*ppml.Result)
	for _, scheme := range []ppml.Scheme{
		ppml.HorizontalLinear, ppml.HorizontalKernel,
		ppml.VerticalLinear, ppml.VerticalKernel,
	} {
		opts := []ppml.Option{ppml.WithLearners(2), ppml.WithIterations(8)}
		if scheme == ppml.HorizontalKernel || scheme == ppml.VerticalKernel {
			opts = append(opts, ppml.WithKernel(ppml.RBFKernel(0.1)), ppml.WithLandmarks(8))
		}
		res, err := ppml.Train(train, scheme, opts...)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		out[scheme.String()] = res
	}
	central, err := ppml.TrainCentralized(train, ppml.WithC(10))
	if err != nil {
		t.Fatal(err)
	}
	out["centralized"] = central
	kc, err := ppml.TrainCentralized(train, ppml.WithC(10), ppml.WithKernel(ppml.RBFKernel(0.1)))
	if err != nil {
		t.Fatal(err)
	}
	out["centralized-kernel"] = kc
	return out
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	_, test := prepared(t, 160)
	for name, res := range trainEachScheme(t) {
		name, res := name, res
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := ppml.SaveModelWithScaler(&buf, res.Model, nil); err != nil {
				t.Fatal(err)
			}
			loaded, scaler, err := ppml.LoadModelWithScaler(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if scaler != nil {
				t.Errorf("a model saved with a nil scaler loads with scaler %v", scaler)
			}
			// Decisions must match exactly on every test point.
			for i := 0; i < test.Len(); i++ {
				x := test.Row(i)
				if got, want := loaded.Decision(x), res.Model.Decision(x); got != want {
					t.Fatalf("decision differs at %d: %g vs %g", i, got, want)
				}
			}
		})
	}
}

// TestHKModelSavesSupportRowsOnly: a saved and loaded HK model holds each
// learner's support rows only, the rows of its partition with a nonzero
// coefficient, and scores as the trained one does, bit for bit
// (consensus.TestHKModelKeepsSupportRows holds the trained model to the
// whole expansion over every row).
func TestHKModelSavesSupportRowsOnly(t *testing.T) {
	train, test := prepared(t, 160)
	res, err := ppml.Train(train, ppml.HorizontalKernel, ppml.WithLearners(2), ppml.WithIterations(8),
		ppml.WithKernel(ppml.RBFKernel(0.1)), ppml.WithLandmarks(8))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ppml.SaveModelWithScaler(&buf, res.Model, nil); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := ppml.LoadModelWithScaler(&buf)
	if err != nil {
		t.Fatal(err)
	}
	hk, ok := loaded.(*consensus.KernelHorizontalModel)
	if !ok {
		t.Fatalf("loaded a %T", loaded)
	}
	rows := 0
	for m, coef := range hk.CoefX {
		rows += hk.SupportX[m].Rows
		for i, c := range coef {
			if c == 0 {
				t.Errorf("learner %d keeps support row %d with a zero coefficient", m, i)
			}
		}
	}
	if rows == 0 || rows >= train.Len() {
		t.Errorf("the model keeps %d of %d training rows", rows, train.Len())
	}
	for i := 0; i < test.Len(); i++ {
		x := test.Row(i)
		if got, want := loaded.Decision(x), res.Model.Decision(x); got != want {
			t.Fatalf("decision differs at %d: %g vs %g", i, got, want)
		}
	}
}

func TestLoadModelErrors(t *testing.T) {
	cases := []string{
		"",  // empty
		"{", // truncated JSON
		`{"version":99,"type":"linear","payload":{}}`,                                                                           // bad version
		`{"version":1,"type":"alien","payload":{}}`,                                                                             // unknown type
		`{"version":1,"type":"svm","payload":{"kernel":"quantum:1"}}`,                                                           // bad kernel
		`{"version":1,"type":"kernel-horizontal","payload":{"kernel":"linear","supportX":[null],"coefX":[],"coefG":[],"b":[]}}`, // inconsistent
		`{"version":1,"type":"linear","payload":{"w":[1,1],"b":0},"scaler":{"mean":[0,0],"std":[0,1]}}`,                         // zero std
		`{"version":1,"type":"logistic","payload":{"w":[1,1],"b":0}}`,                                                           // retired scheme
		`{"version":1,"type":"naive-bayes","payload":{"priorPos":0.5,"meanPos":[0],"varPos":[1],"meanNeg":[0],"varNeg":[1]}}`,   // retired scheme
	}
	for _, in := range cases {
		if _, _, err := ppml.LoadModelWithScaler(strings.NewReader(in)); !errors.Is(err, ppml.ErrBadModel) {
			t.Errorf("LoadModelWithScaler(%.40q): err = %v, want ErrBadModel", in, err)
		}
	}
}

// TestLoadModelRejectsInconsistentShapes: a model file whose shapes do not
// fit together is ErrBadModel at load, not a panic or a wrong score at the
// first Decision. Each bad row is one edit away from the valid row of its
// model type, which loads and scores a 2-feature sample.
func TestLoadModelRejectsInconsistentShapes(t *testing.T) {
	const (
		lm  = `"landmarks":{"Rows":2,"Cols":2,"Data":[0,1,1,0]}`
		hsx = `"supportX":[{"Rows":3,"Cols":2,"Data":[1,2,3,4,5,6]}]`
		hcx = `"coefX":[[0.5,-0.5,0.25]]`
		hcg = `"coefG":[[0.1,0.2]]`
		vsx = `"supportX":[{"Rows":2,"Cols":1,"Data":[1,2]},{"Rows":2,"Cols":1,"Data":[3,4]}]`
		val = `"alpha":[[0.5,-0.5],[0.25,0.1]]`
		ssx = `"supportX":{"Rows":2,"Cols":2,"Data":[1,2,3,4]}`
	)
	hk := func(fields ...string) string {
		return `"kernel-horizontal","payload":{"kernel":"rbf:0.5","b":[0.3],` + strings.Join(fields, ",") + `}`
	}
	vk := func(cols string, fields ...string) string {
		return `"kernel-vertical","payload":{"kernel":"rbf:0.5","b":0.1,"cols":` + cols + `,` + strings.Join(fields, ",") + `}`
	}
	sv := func(kernel string, fields ...string) string {
		return `"svm","payload":{"kernel":"` + kernel + `","b":0.1,` + strings.Join(fields, ",") + `}`
	}
	for _, tc := range []struct {
		name, body string
		ok         bool
	}{
		{"hk valid", hk(lm, hsx, hcx, hcg), true},
		{"hk coefX shorter than its support rows", hk(lm, hsx, `"coefX":[[0.5,-0.5]]`, hcg), false},
		{"hk coefG longer than the landmarks", hk(lm, hsx, hcx, `"coefG":[[0.1,0.2,0.3]]`), false},
		{"hk without landmarks", hk(hsx, hcx, hcg), false},
		{"hk support data shorter than rows x cols", hk(lm, `"supportX":[{"Rows":3,"Cols":2,"Data":[1,2,3,4,5]}]`, hcx, hcg), false},
		{"hk support narrower than the landmarks", hk(lm, `"supportX":[{"Rows":3,"Cols":1,"Data":[1,2,3]}]`, hcx, hcg), false},
		{"hk landmarks with negative rows", hk(`"landmarks":{"Rows":-1,"Cols":2,"Data":[]}`, hsx, hcx, hcg), false},
		{"hk with no learners", `"kernel-horizontal","payload":{"kernel":"rbf:0.5",` + lm + `,"supportX":[],"coefX":[],"coefG":[],"b":[]}`, false},
		{"vk valid", vk(`[[0],[1]]`, vsx, val), true},
		{"vk column outside the sample width", vk(`[[0],[5]]`, vsx, val), false},
		{"vk column owned twice", vk(`[[0],[0]]`, vsx, val), false},
		{"vk negative column", vk(`[[-1],[1]]`, vsx, val), false},
		{"vk alpha shorter than its support rows", vk(`[[0],[1]]`, vsx, `"alpha":[[0.5],[0.25,0.1]]`), false},
		{"vk support wider than its columns", vk(`[[0],[1]]`, `"supportX":[{"Rows":1,"Cols":2,"Data":[1,2]},{"Rows":2,"Cols":1,"Data":[3,4]}]`, val), false},
		{"vk without a support matrix", vk(`[[0],[1]]`, `"supportX":[null,{"Rows":2,"Cols":1,"Data":[3,4]}]`, val), false},
		{"svm valid", sv("rbf:0.5", ssx, `"coef":[0.5,-0.5]`), true},
		{"svm linear valid", sv("linear", ssx, `"coef":[0.5,-0.5]`, `"w":[1,2]`), true},
		{"svm coef shorter than its support rows", sv("rbf:0.5", ssx, `"coef":[0.5]`), false},
		{"svm w wider than the support rows", sv("linear", ssx, `"coef":[0.5,-0.5]`, `"w":[1,2,3]`), false},
		{"svm support data longer than rows x cols", sv("rbf:0.5", `"supportX":{"Rows":2,"Cols":2,"Data":[1,2,3,4,5]}`, `"coef":[0.5,-0.5]`), false},
		{"svm without support vectors", sv("rbf:0.5", `"coef":[]`), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, _, err := ppml.LoadModelWithScaler(strings.NewReader(`{"version":1,"type":` + tc.body + `}`))
			if !tc.ok {
				if !errors.Is(err, ppml.ErrBadModel) {
					t.Fatalf("err = %v, want ErrBadModel", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if d := m.Decision([]float64{0.5, -1}); math.IsNaN(d) {
				t.Errorf("Decision = NaN")
			}
		})
	}
}

func TestSavedModelIsVersionedJSON(t *testing.T) {
	res := trainEachScheme(t)["horizontal-linear"]
	var buf bytes.Buffer
	if err := ppml.SaveModelWithScaler(&buf, res.Model, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"version": 1`) || !strings.Contains(out, `"type": "linear"`) {
		t.Errorf("serialized model missing framing:\n%.200s", out)
	}
}

func TestSaveLoadModelWithScaler(t *testing.T) {
	data := ppml.SyntheticCancer(200, 4)
	train, test, err := data.Split(0.5)
	if err != nil {
		t.Fatal(err)
	}
	scaler, err := ppml.Standardize(train, test)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ppml.Train(train, ppml.HorizontalLinear, ppml.WithLearners(2), ppml.WithIterations(10))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ppml.SaveModelWithScaler(&buf, res.Model, scaler); err != nil {
		t.Fatal(err)
	}
	model, loadedScaler, err := ppml.LoadModelWithScaler(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loadedScaler == nil {
		t.Fatal("scaler was not round-tripped")
	}
	if _, err := loadedScaler.Transform(make([]float64, train.Features())); err != nil {
		t.Errorf("loaded scaler rejects a %d-feature sample: %v", train.Features(), err)
	}
	// Fresh raw data + loaded scaler must reproduce the trained pipeline:
	// transform a raw sample and check the decision matches the test-set one.
	raw := ppml.SyntheticCancer(200, 4) // same seed: same underlying samples
	for i := 0; i < 10; i++ {
		x, err := loadedScaler.Transform(raw.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		// The standardized vector classifies identically under both models.
		if model.Predict(x) != res.Model.Predict(x) {
			t.Fatalf("prediction differs on transformed sample %d", i)
		}
	}
}

func TestScalerTransformValidation(t *testing.T) {
	data := ppml.SyntheticCancer(60, 4)
	train, _, err := data.Split(0.5)
	if err != nil {
		t.Fatal(err)
	}
	scaler, err := ppml.Standardize(train)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scaler.Transform([]float64{1}); !errors.Is(err, ppml.ErrBadRequest) {
		t.Errorf("short vector: err = %v, want ErrBadRequest", err)
	}
	var nilScaler *ppml.Scaler
	if _, err := nilScaler.Transform([]float64{1}); !errors.Is(err, ppml.ErrBadRequest) {
		t.Errorf("nil scaler: err = %v, want ErrBadRequest", err)
	}
}

package experiments

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/ppml-go/ppml"
)

// tinyOptions keeps unit tests fast; the benchmarks use Defaults().
func tinyOptions() Options {
	o := Defaults()
	o.CancerN = 200
	o.HiggsN = 200
	o.OCRN = 200
	o.Iterations = 8
	o.Landmarks = 10
	return o
}

func TestRunPanelUnknown(t *testing.T) {
	if _, err := RunPanel("z", tinyOptions()); !errors.Is(err, ErrUnknownExperiment) {
		t.Errorf("unknown panel: err = %v, want ErrUnknownExperiment", err)
	}
}

func TestRunPanelShapes(t *testing.T) {
	o := tinyOptions()
	for _, id := range []string{"a", "b", "c", "d"} {
		id := id
		t.Run("panel-"+id, func(t *testing.T) {
			p, err := RunPanel(id, o)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.Series) != 3 {
				t.Fatalf("panel %s has %d series, want 3", id, len(p.Series))
			}
			names := []string{"ocr", "cancer", "higgs"}
			for i, s := range p.Series {
				if s.Dataset != names[i] {
					t.Errorf("series %d is %q, want %q", i, s.Dataset, names[i])
				}
				if len(s.DeltaZSq) != o.Iterations {
					t.Errorf("%s: %d Δz² points, want %d", s.Dataset, len(s.DeltaZSq), o.Iterations)
				}
				if len(s.Accuracy) != o.Iterations {
					t.Errorf("%s: %d accuracy points, want %d", s.Dataset, len(s.Accuracy), o.Iterations)
				}
				for _, a := range s.Accuracy {
					if a < 0 || a > 1 {
						t.Errorf("%s: accuracy %g outside [0,1]", s.Dataset, a)
					}
				}
				for _, d := range s.DeltaZSq {
					if d < 0 {
						t.Errorf("%s: negative Δz² %g", s.Dataset, d)
					}
				}
			}
		})
	}
}

func TestPanelPairsShareScheme(t *testing.T) {
	// Panels (a) and (e) are two views of the same runs.
	sA, dA, err := schemeOf("a")
	if err != nil {
		t.Fatal(err)
	}
	sE, dE, err := schemeOf("e")
	if err != nil {
		t.Fatal(err)
	}
	if sA != sE || dA != dE {
		t.Error("panels a and e must map to the same scheme")
	}
}

func TestRunBaseline(t *testing.T) {
	o := tinyOptions()
	o.CancerN = 300 // enough signal for the accuracy bands
	rows, err := RunBaseline(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d baseline rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Accuracy < 0.5 || r.Accuracy > 1 {
			t.Errorf("%s: baseline accuracy %g implausible", r.Dataset, r.Accuracy)
		}
		if r.PaperAccuracy == 0 {
			t.Errorf("%s: missing paper reference accuracy", r.Dataset)
		}
	}
}

func TestRunScalability(t *testing.T) {
	o := tinyOptions()
	o.Iterations = 5
	rows, err := RunScalability(o, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d scalability rows, want 2", len(rows))
	}
	if rows[1].Messages <= rows[0].Messages {
		t.Errorf("messages must grow with M: M=2 → %d, M=4 → %d", rows[0].Messages, rows[1].Messages)
	}
	for _, r := range rows {
		if r.Accuracy < 0.8 {
			t.Errorf("M=%d: accuracy %g too low", r.Learners, r.Accuracy)
		}
	}
}

func TestWritePanel(t *testing.T) {
	o := tinyOptions()
	o.Iterations = 3
	p, err := RunPanel("a", o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePanel(&buf, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Fig.4(a)") {
		t.Error("missing panel header")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// header comment + column header + 3 iterations
	if len(lines) != 5 {
		t.Errorf("got %d lines, want 5:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "iter\tocr\tcancer\thiggs") {
		t.Errorf("bad column header: %q", lines[1])
	}
}

func TestRunPanelDistributed(t *testing.T) {
	o := tinyOptions()
	o.Iterations = 3
	o.Distributed = true
	p, err := RunPanel("a", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Series) != 3 {
		t.Fatalf("distributed panel has %d series", len(p.Series))
	}
	for _, s := range p.Series {
		if len(s.DeltaZSq) != 3 {
			t.Errorf("%s: %d points, want 3", s.Dataset, len(s.DeltaZSq))
		}
	}
}

func TestPaperScaleSizes(t *testing.T) {
	o := PaperScale()
	if o.HiggsN != 11000 || o.OCRN != 5620 || o.CancerN != 569 {
		t.Errorf("paper scale sizes wrong: %+v", o)
	}
	d := Defaults()
	if d.C != 50 || d.Rho != 100 || d.Learners != 4 || d.Iterations != 100 {
		t.Errorf("defaults do not match the paper: %+v", d)
	}
}

// TestTelemetryMatchesHistory pins the counter-parity contract behind the
// telemetry-sourced traffic columns: the transport telemetry counters a live
// /metrics scrape serves must equal the transport.Stats totals History
// reports, and both must match the closed-form traffic shape of seeded
// masking — m(m−1) seed messages once, then (m shares + m broadcasts) per
// round, plus m stop messages — in messages and in payload bytes: a seed is
// 32 bytes, a broadcast is the state and a share the contribution at 8 bytes
// per value, and a stop carries nothing.
func TestTelemetryMatchesHistory(t *testing.T) {
	const m, iters = 3, 4
	data := ppml.SyntheticCancer(200, 1)
	train, test, err := data.Split(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ppml.Standardize(train, test); err != nil {
		t.Fatal(err)
	}
	tel := ppml.NewTelemetry()
	res, err := ppml.Train(train, ppml.HorizontalLinear,
		ppml.WithLearners(m), ppml.WithC(50), ppml.WithRho(100),
		ppml.WithIterations(iters), ppml.WithDistributed(),
		ppml.WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	msgs, bytes := sentTotals(tel)
	if msgs != res.History.MessagesSent {
		t.Errorf("telemetry messages = %d, History = %d", msgs, res.History.MessagesSent)
	}
	if bytes != res.History.BytesSent {
		t.Errorf("telemetry bytes = %d, History = %d", bytes, res.History.BytesSent)
	}
	wantMsgs := int64(m*(m-1) + iters*2*m + m)
	if msgs != wantMsgs {
		t.Errorf("messages = %d, want %d (m(m-1) seeds + 2m per round + m stops)", msgs, wantMsgs)
	}
	// HL's state and contribution are both (w, b): features + 1 values.
	state := train.Features() + 1
	if want := int64(32*m*(m-1) + iters*m*8*(state+state)); bytes != want {
		t.Errorf("bytes = %d, want %d (32-byte seeds + per round m broadcasts and m shares of %d values)", bytes, want, state)
	}
	snap := tel.Snapshot()
	if rounds := snap.CounterTotal("ppml_rounds_total"); rounds != int64(res.History.Iterations) {
		t.Errorf("ppml_rounds_total = %d, want %d", rounds, res.History.Iterations)
	}
}

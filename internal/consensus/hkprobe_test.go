package consensus

import (
	"context"
	"math"
	"testing"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/kernel"
	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/mapreduce"
	"github.com/ppml-go/ppml/internal/telemetry"
)

// hkLandmarksJob builds bench's hk_landmarks job (OCR rows split 50/50 and
// standardized, M = 4, 30 landmarks, RBF γ = 1/k, C = 50, ρ = 100, 18 rounds,
// an eval set) with chunks of chunkRows rows, its probe counting into reg.
func hkLandmarksJob(tb testing.TB, chunkRows int, reg *telemetry.Registry) (Config, *landmarks, []*hkMapper) {
	tb.Helper()
	train, test := splitAndScale(tb, dataset.SyntheticOCR(2000, 1))
	cfg, lm, hk, err := newHKJob(horizontalParts(tb, train, 4, 1), Config{
		C: 50, Rho: 100, MaxIterations: 18, Seed: 1, Landmarks: 30, ChunkRows: chunkRows,
		Kernel: kernel.RBF{Gamma: 1 / float64(train.Features())}, EvalSet: test, Telemetry: reg,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return cfg, lm, hk
}

// observedMapper runs an HK mapper's rounds and hands each to after.
type observedMapper struct {
	mp    *hkMapper
	after func(iter int, state []float64)
}

func (o observedMapper) Contribution(iter int, state []float64) ([]float64, error) {
	contrib, err := o.mp.Contribution(iter, state)
	if err == nil {
		o.after(iter, state)
	}
	return contrib, err
}

// runHKJob trains the job on the local engine with every mapper observed and
// returns the final consensus z.
func runHKJob(tb testing.TB, cfg Config, lm *landmarks, hk []*hkMapper, after func(m, iter int, state []float64)) []float64 {
	tb.Helper()
	mappers := make([]mapreduce.IterativeMapper, len(hk))
	for i, mp := range hk {
		mappers[i] = observedMapper{mp, func(iter int, state []float64) { after(i, iter, state) }}
	}
	final, _, err := trainMean(context.Background(), cfg, "hk", mappers, lm.xg.Rows+1, lm.probe(cfg, hk))
	if err != nil {
		tb.Fatal(err)
	}
	return final[:lm.xg.Rows]
}

// fullScore is the probe share a full rescore gives: the mapper's expansion
// at z = 0 scored over all its rows from zero, as score does in a mapper's
// first round. It returns the decisions and the rows with a nonzero
// coefficient.
func fullScore(mp *hkMapper) ([]float64, int, error) {
	l := mp.vl.dim
	coef, c, scratch := make([]float64, mp.x.Rows), make([]float64, l), make([]float64, 3*l)
	b, err := mp.expansion(make([]float64, l), coef, c, scratch)
	if err != nil {
		return nil, 0, err
	}
	dec := make([]float64, mp.cfg.EvalSet.Len())
	if err := kernel.Accumulate(mp.cfg.Kernel, mp.cfg.EvalSet.X, mp.x, coef, dec); err != nil {
		return nil, 0, err
	}
	for j, cj := range c {
		linalg.Axpy(cj, mp.lm.evalG.Row(j), dec)
	}
	for i := range dec {
		dec[i] += b
	}
	nnz := 0
	for _, v := range coef {
		if v != 0 {
			nnz++
		}
	}
	return dec, nnz, nil
}

// TestHKProbeScoresTheChange holds the HK probe's running kernel sum on the
// hk_landmarks shape, in one chunk and in chunks of 50 rows: after every
// round each mapper's partial decisions are a full rescore's to 1e-9
// relative, ppml_probe_kernel_rows_total counts at most half the rows a full
// rescore every round scores (pinned, so a change of schedule or solver
// shows), and a round in which every coefficient moves takes the full path,
// bit for bit.
func TestHKProbeScoresTheChange(t *testing.T) {
	for _, tc := range []struct {
		name      string
		chunkRows int
		fullRows  int64
	}{
		{"one chunk", 0, 11947},
		{"chunks of 50", 50, 14852},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			cfg, lm, hk := hkLandmarksJob(t, tc.chunkRows, reg)
			full := make([]int64, len(hk)) // each mapper's, written by its goroutine only
			runHKJob(t, cfg, lm, hk, func(m, iter int, _ []float64) {
				want, nnz, err := fullScore(hk[m])
				if err != nil {
					t.Error(err)
					return
				}
				full[m] += int64(nnz)
				for i, d := range hk[m].partial.v {
					if math.Abs(d-want[i]) > 1e-9*(1+math.Abs(want[i])) {
						t.Errorf("round %d, learner %d: partial decision %d is %v, a full rescore's %v", iter, m, i, d, want[i])
						return
					}
				}
			})
			var fullRows int64
			for _, n := range full {
				fullRows += n
			}
			if fullRows != tc.fullRows {
				t.Errorf("a full rescore every round scores %d rows, want %d", fullRows, tc.fullRows)
			}
			counter := reg.Counter(metricProbeKernelRows)
			if got := counter.Value(); 2*got > fullRows {
				t.Errorf("the probe scored %d rows, want ≤ %d (half of %d)", got, fullRows/2, fullRows)
			}

			// Every coefficient of learner 0 moves: Δ is as dense as M′·Yλ,
			// so the kernel part is rescored from zero, with a full
			// rescore's bits.
			mp := hk[0]
			for i := range mp.ylambda {
				mp.ylambda[i] += 0.25 * mp.y[i]
			}
			before := counter.Value()
			if err := mp.score(); err != nil {
				t.Fatal(err)
			}
			want, nnz, err := fullScore(mp)
			if err != nil {
				t.Fatal(err)
			}
			if nnz != len(mp.ylambda) {
				t.Fatalf("%d of %d planted coefficients are nonzero", nnz, len(mp.ylambda))
			}
			if got := counter.Value() - before; got != int64(nnz) {
				t.Errorf("the planted round scored %d rows, want all %d", got, nnz)
			}
			for i, d := range mp.partial.v {
				if d != want[i] {
					t.Fatalf("planted round: partial decision %d is %v, a full rescore's %v (not the full path)", i, d, want[i])
				}
			}
		})
	}
}

// TestHKModelKeepsSupportRows trains the hk_landmarks shape and holds the
// model to its support rows: no learner keeps a row whose coefficient is
// zero, it keeps fewer rows than its partition, and the model's decisions on
// the eval rows are bit for bit those of the whole expansion over every row.
func TestHKModelKeepsSupportRows(t *testing.T) {
	cfg, lm, hk := hkLandmarksJob(t, 0, nil)
	z := runHKJob(t, cfg, lm, hk, func(int, int, []float64) {})
	model, err := lm.model(cfg.Kernel, hk, z)
	if err != nil {
		t.Fatal(err)
	}
	whole := &KernelHorizontalModel{Kernel: model.Kernel, Landmarks: model.Landmarks, CoefG: model.CoefG, B: model.B}
	scratch := make([]float64, 3*lm.xg.Rows)
	for m, mp := range hk {
		coef := make([]float64, mp.x.Rows)
		if _, err := mp.expansion(z, coef, make([]float64, lm.xg.Rows), scratch); err != nil {
			t.Fatal(err)
		}
		whole.SupportX, whole.CoefX = append(whole.SupportX, mp.x), append(whole.CoefX, coef)
		if rows := model.SupportX[m].Rows; rows != len(model.CoefX[m]) || rows >= mp.x.Rows {
			t.Errorf("learner %d keeps %d rows and %d coefficients of its %d", m, rows, len(model.CoefX[m]), mp.x.Rows)
		}
		for i, c := range model.CoefX[m] {
			if c == 0 {
				t.Errorf("learner %d keeps support row %d with a zero coefficient", m, i)
			}
		}
	}
	got, err := model.Decisions(cfg.EvalSet.X, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := whole.Decisions(cfg.EvalSet.X, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("decision %d is %v, the whole expansion's %v", i, got[i], want[i])
		}
	}
}

// BenchmarkHKProbeRound replays the hk_landmarks trajectory one round of the
// four mappers (local solve, then the probe's share) per op, from broadcasts
// recorded on one training run, and reports the support rows the probes
// scored per op. The mappers are rebuilt, untimed, every 18 rounds.
func BenchmarkHKProbeRound(b *testing.B) {
	cfg, lm, hk := hkLandmarksJob(b, 0, nil)
	var states [][]float64
	runHKJob(b, cfg, lm, hk, func(m, iter int, state []float64) {
		if m == 0 {
			states = append(states, append([]float64(nil), state...))
		}
	})
	var rows int64
	var reg *telemetry.Registry
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter := i % len(states)
		if iter == 0 {
			b.StopTimer()
			rows += reg.Counter(metricProbeKernelRows).Value()
			reg = telemetry.NewRegistry()
			_, _, hk = hkLandmarksJob(b, 0, reg)
			b.StartTimer()
		}
		for _, mp := range hk {
			if _, err := mp.Contribution(iter, states[iter]); err != nil {
				b.Fatal(err)
			}
		}
	}
	rows += reg.Counter(metricProbeKernelRows).Value()
	b.ReportMetric(float64(rows)/float64(b.N), "kernel_rows/op")
}

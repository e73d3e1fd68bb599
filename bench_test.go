// Benchmarks regenerating the paper's evaluation. One benchmark per Fig. 4
// panel (BenchmarkFig4a–h), the in-text centralized baseline, the
// scalability and data-locality measurements behind the Section I/VI claims,
// and the ablations listed in DESIGN.md. Custom metrics carry the
// experiment's headline numbers (final Δz², final accuracy, bytes moved,
// crypto ops) alongside the usual ns/op.
//
// Run everything:
//
//	go test -bench=. -benchmem
package ppml_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/ppml-go/ppml"
	"github.com/ppml-go/ppml/internal/experiments"
	"github.com/ppml-go/ppml/internal/mapreduce"
)

// benchOptions are the Fig. 4 settings: the paper's parameters at the
// default reduced data scale (see experiments.Defaults).
func benchOptions() experiments.Options {
	return experiments.Defaults()
}

// reportPanel attaches the per-data-set headline numbers of a panel run.
func reportPanel(b *testing.B, p *experiments.Panel) {
	b.Helper()
	for _, s := range p.Series {
		if len(s.DeltaZSq) > 0 {
			b.ReportMetric(s.DeltaZSq[len(s.DeltaZSq)-1], "final_dz2_"+s.Dataset)
		}
		if len(s.Accuracy) > 0 {
			b.ReportMetric(s.Accuracy[len(s.Accuracy)-1], "final_acc_"+s.Dataset)
		}
	}
}

func benchmarkPanel(b *testing.B, id string) {
	b.Helper()
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		p, err := experiments.RunPanel(id, o)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportPanel(b, p)
		}
	}
}

// BenchmarkFig4a regenerates Fig. 4(a): ‖z_{t+1}−z_t‖², linear horizontal.
func BenchmarkFig4a(b *testing.B) { benchmarkPanel(b, "a") }

// BenchmarkFig4b regenerates Fig. 4(b): ‖z_{t+1}−z_t‖², nonlinear horizontal.
func BenchmarkFig4b(b *testing.B) { benchmarkPanel(b, "b") }

// BenchmarkFig4c regenerates Fig. 4(c): ‖z_{t+1}−z_t‖², linear vertical.
func BenchmarkFig4c(b *testing.B) { benchmarkPanel(b, "c") }

// BenchmarkFig4d regenerates Fig. 4(d): ‖z_{t+1}−z_t‖², nonlinear vertical.
func BenchmarkFig4d(b *testing.B) { benchmarkPanel(b, "d") }

// BenchmarkFig4e regenerates Fig. 4(e): correct ratio, linear horizontal.
func BenchmarkFig4e(b *testing.B) { benchmarkPanel(b, "e") }

// BenchmarkFig4f regenerates Fig. 4(f): correct ratio, nonlinear horizontal.
func BenchmarkFig4f(b *testing.B) { benchmarkPanel(b, "f") }

// BenchmarkFig4g regenerates Fig. 4(g): correct ratio, linear vertical.
func BenchmarkFig4g(b *testing.B) { benchmarkPanel(b, "g") }

// BenchmarkFig4h regenerates Fig. 4(h): correct ratio, nonlinear vertical.
func BenchmarkFig4h(b *testing.B) { benchmarkPanel(b, "h") }

// BenchmarkCentralizedBaseline reproduces the in-text benchmark accuracies
// (cancer ≈ 95%, higgs ≈ 70%, ocr ≈ 98%).
func BenchmarkCentralizedBaseline(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunBaseline(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(r.Accuracy, "acc_"+r.Dataset)
			}
		}
	}
}

// BenchmarkScalabilityLearners sweeps M for the distributed horizontal
// linear scheme, reporting wall time and per-run traffic (messages/op, bytes/op) per cluster size — the measurement behind
// the seeded-mask communication claim in EXPERIMENTS.md. The traffic
// numbers come from the transport telemetry counters (via RunScalability),
// the same counters a live -metrics-addr endpoint serves.
func BenchmarkScalabilityLearners(b *testing.B) {
	for _, m := range []int{1, 2, 4, 8, 16} {
		m := m
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			o := benchOptions()
			o.Iterations = 30
			for i := 0; i < b.N; i++ {
				rows, err := experiments.RunScalability(o, []int{m})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(rows[0].Bytes), "bytes/op")
					b.ReportMetric(float64(rows[0].Messages), "messages/op")
					b.ReportMetric(rows[0].Accuracy, "accuracy")
				}
			}
		})
	}
}

// BenchmarkScalabilityRecords sweeps the training volume N for the
// horizontal linear scheme, demonstrating near-linear growth: the work per
// node is an N_m-sized local QP per iteration.
func BenchmarkScalabilityRecords(b *testing.B) {
	for _, n := range []int{500, 1000, 2000, 4000} {
		n := n
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			data := ppml.SyntheticHiggs(n, 1)
			train, test, err := data.Split(0.5)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ppml.Standardize(train, test); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := ppml.Train(train, ppml.HorizontalLinear,
					ppml.WithLearners(4), ppml.WithC(50), ppml.WithRho(100),
					ppml.WithIterations(30))
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					acc, err := ppml.Evaluate(res.Model, test)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(acc, "accuracy")
				}
			}
		})
	}
}

// benchAverager is the averaging job BenchmarkAggregatorOverhead drives: each
// mapper contributes its fixed vector every round, the reducer divides the
// aggregate by M and never converges, so the round count is exact.
type benchAverager struct {
	value []float64
	m     int
}

func (a *benchAverager) Contribution(iter int, state []float64) ([]float64, error) {
	return a.value, nil
}

func (a *benchAverager) Combine(iter int, sum []float64) ([]float64, bool, error) {
	next := make([]float64, len(sum))
	for i, v := range sum {
		next[i] = v / float64(a.m)
	}
	return next, false, nil
}

// BenchmarkAggregatorOverhead compares the Reducer's two aggregation backends
// on the path training actually runs (mapreduce.RunDistributed, in-process
// network): one op is a 4-round averaging job over M = 4 learners with
// 1000-dimensional iterates, aggregated in plaintext vs under the paper's
// pairwise-mask protocol. This quantifies the "limited number of cheap
// cryptographic operations" claim: masking costs within a small factor of
// plaintext. The public-key alternative is measured per layer by
// internal/paillier's BenchmarkPaillierVector.
func BenchmarkAggregatorOverhead(b *testing.B) {
	const m, dim, rounds = 4, 1000, 4
	job := mapreduce.IterativeJob{
		Mappers:         make([]mapreduce.IterativeMapper, m),
		Reducer:         &benchAverager{m: m},
		InitialState:    make([]float64, dim),
		ContributionDim: dim,
		MaxIterations:   rounds,
	}
	for i := range job.Mappers {
		value := make([]float64, dim)
		for j := range value {
			value[j] = float64(i*dim+j) / 1000
		}
		job.Mappers[i] = &benchAverager{value: value}
	}
	for _, bc := range []struct {
		name string
		agg  mapreduce.Aggregation
	}{
		{"plain", mapreduce.AggregationPlain},
		{"masked", mapreduce.AggregationMasked},
	} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			var msgs, bytes int64
			for i := 0; i < b.N; i++ {
				res, err := mapreduce.RunDistributed(context.Background(), job, mapreduce.DriverOptions{
					Aggregation: bc.agg,
				})
				if err != nil {
					b.Fatal(err)
				}
				msgs += res.Net.Messages
				bytes += res.Net.Bytes
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "messages/op")
			b.ReportMetric(float64(bytes)/float64(b.N), "bytes/op")
		})
	}
}

// BenchmarkDataLocalityBytes quantifies the Section I data-locality
// argument. Consensus traffic is independent of the training volume N (per
// iteration each learner ships one masked (k+1)-vector plus pairwise masks),
// while centralizing the raw data costs O(N·k) — so shipping results beats
// shipping data once N passes a small crossover, and the advantage then
// grows linearly. The sweep exposes both regimes.
func BenchmarkDataLocalityBytes(b *testing.B) {
	for _, n := range []int{500, 2000, 8000} {
		n := n
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			data := ppml.SyntheticHiggs(n, 1)
			train, _, err := data.Split(0.5)
			if err != nil {
				b.Fatal(err)
			}
			// Raw bytes a centralized solution must move: the training matrix.
			rawBytes := float64(train.Len() * (train.Features() + 1) * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := ppml.Train(train, ppml.HorizontalLinear,
					ppml.WithLearners(4), ppml.WithC(50), ppml.WithRho(100),
					ppml.WithIterations(30), ppml.WithDistributed())
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(res.History.BytesSent), "consensus_bytes")
					b.ReportMetric(rawBytes, "ship_data_bytes")
					b.ReportMetric(rawBytes/float64(res.History.BytesSent), "data_to_consensus_ratio")
				}
			}
		})
	}
}

// BenchmarkAblationLandmarks sweeps the landmark count l of the horizontal
// kernel scheme: accuracy of the RKHS-consensus approximation vs cost
// (Lemma 4.4 discussion).
func BenchmarkAblationLandmarks(b *testing.B) {
	data := ppml.SyntheticHiggs(1000, 1)
	train, test, err := data.Split(0.5)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ppml.Standardize(train, test); err != nil {
		b.Fatal(err)
	}
	for _, l := range []int{5, 10, 20, 40, 80} {
		l := l
		b.Run(fmt.Sprintf("l=%d", l), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := ppml.Train(train, ppml.HorizontalKernel,
					ppml.WithLearners(4), ppml.WithC(50), ppml.WithRho(10),
					ppml.WithIterations(30), ppml.WithLandmarks(l),
					ppml.WithKernel(ppml.RBFKernel(1.0/28)))
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					acc, err := ppml.Evaluate(res.Model, test)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(acc, "accuracy")
				}
			}
		})
	}
}

// BenchmarkAblationRho sweeps the ADMM penalty ρ, exposing the
// convergence-speed vs max-margin trade-off Section VI discusses.
func BenchmarkAblationRho(b *testing.B) {
	data := ppml.SyntheticCancer(400, 1)
	train, test, err := data.Split(0.5)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ppml.Standardize(train, test); err != nil {
		b.Fatal(err)
	}
	for _, rho := range []float64{1, 10, 100, 1000} {
		rho := rho
		b.Run(fmt.Sprintf("rho=%g", rho), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := ppml.Train(train, ppml.HorizontalLinear,
					ppml.WithLearners(4), ppml.WithC(50), ppml.WithRho(rho),
					ppml.WithIterations(40))
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					acc, err := ppml.Evaluate(res.Model, test)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(acc, "accuracy")
					b.ReportMetric(res.History.DeltaZSq[len(res.History.DeltaZSq)-1], "final_dz2")
				}
			}
		})
	}
}

// BenchmarkAblationTransport compares in-process channels against loopback
// TCP for the same distributed job.
func BenchmarkAblationTransport(b *testing.B) {
	data := ppml.SyntheticCancer(300, 1)
	train, _, err := data.Split(0.5)
	if err != nil {
		b.Fatal(err)
	}
	for _, tr := range []struct {
		name string
		opt  ppml.Option
	}{
		{"inproc", ppml.WithDistributed()},
		{"tcp", ppml.WithTCP()},
	} {
		tr := tr
		b.Run(tr.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ppml.Train(train, ppml.HorizontalLinear,
					ppml.WithLearners(4), ppml.WithC(50), ppml.WithRho(100),
					ppml.WithIterations(15), tr.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDPEpsilon sweeps the ε of the differentially private
// model release: the privacy-utility trade-off the paper's Section V
// acknowledges ("there always exists a tradeoff between revealing sensitive
// information and utility"), measured. The release noise comes from
// crypto/rand, so one release is one draw: after the timed loop, dpReleases
// more releases give the accuracy's mean and range (min–max).
func BenchmarkAblationDPEpsilon(b *testing.B) {
	const dpReleases = 10
	data := ppml.SyntheticCancer(400, 1)
	train, test, err := data.Split(0.5)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ppml.Standardize(train, test); err != nil {
		b.Fatal(err)
	}
	for _, eps := range []float64{0.1, 1, 10, 100, 0} { // 0 = no DP
		eps := eps
		name := fmt.Sprintf("eps=%g", eps)
		if eps == 0 {
			name = "eps=off"
		}
		release := func() *ppml.Result {
			opts := []ppml.Option{
				ppml.WithLearners(4), ppml.WithC(1), ppml.WithRho(100),
				ppml.WithIterations(25),
			}
			if eps > 0 {
				opts = append(opts, ppml.WithDPOutput(eps))
			}
			res, err := ppml.Train(train, ppml.HorizontalLinear, opts...)
			if err != nil {
				b.Fatal(err)
			}
			return res
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				release()
			}
			b.StopTimer()
			sum, lo, hi := 0.0, 1.0, 0.0
			for range dpReleases {
				acc, err := ppml.Evaluate(release().Model, test)
				if err != nil {
					b.Fatal(err)
				}
				sum += acc
				lo, hi = min(lo, acc), max(hi, acc)
			}
			b.ReportMetric(sum/dpReleases, "accuracy")
			b.ReportMetric(lo, "acc_min")
			b.ReportMetric(hi, "acc_max")
		})
	}
}

// BenchmarkSecureStandardization measures the one-round cost of fitting the
// feature scaler through the secure summation protocol vs pooling the data.
func BenchmarkSecureStandardization(b *testing.B) {
	data := ppml.SyntheticHiggs(2000, 1)
	train, _, err := data.Split(0.5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ppml.Train(train, ppml.HorizontalLinear,
			ppml.WithLearners(4), ppml.WithIterations(1),
			ppml.WithSecureStandardization(), ppml.WithDistributed())
		if err != nil {
			b.Fatal(err)
		}
		if res.Scaler == nil {
			b.Fatal("no scaler")
		}
	}
}

package main

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"time"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/eval"
	"github.com/ppml-go/ppml/internal/fixedpoint"
	"github.com/ppml-go/ppml/internal/kernel"
	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/paillier"
	"github.com/ppml-go/ppml/internal/qp"
	"github.com/ppml-go/ppml/internal/securesum"
	"github.com/ppml-go/ppml/internal/telemetry"
)

// Replay calls each layer's exported functions directly, at the shapes the
// workload gives them (learner 0's partition, the workload's share dimension
// and M), and times the calls from here. A layer the workload's scheme never
// touches is skipped and reads 0.

const (
	clockBudget  = 30 * time.Millisecond
	clockMinRuns = 3
)

// replayer carries one workload's inputs and the metrics being filled.
type replayer struct {
	*inputs
	m      metrics
	budget time.Duration // per clocked call site; 0 under -smoke
}

func (r *replayer) set(name string, v float64) { r.m.set(perLayer, name, v) }

// clock calls f at least clockMinRuns times and until the budget is spent,
// and returns the median call in milliseconds.
func (r *replayer) clock(f func() error) (float64, error) {
	var samples []float64
	for start := time.Now(); len(samples) < clockMinRuns || time.Since(start) < r.budget; {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		samples = append(samples, ms(time.Since(t0)))
	}
	return median(samples), nil
}

// shareDim is the length of the vector every learner contributes per round.
func (in *inputs) shareDim() int {
	switch in.w.Scheme {
	case schemeHK:
		return paramLandmarks + 1
	case schemeVL, schemeVK:
		return in.pooled.Len()
	}
	return in.pooled.Features() + 1
}

func (r *replayer) run(model decider) error {
	for _, step := range []func() error{
		r.dfs, r.linalg, r.kernels, r.qp, r.fixedpoint, r.securesum, r.paillier,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	t, err := r.clock(func() error {
		_, err := eval.ClassifierAccuracy(model, r.eval)
		return err
	})
	r.set("eval.accuracy_ms", t)
	return err
}

// hlBlock is the row block one HL dual solve works on: learner 0's whole
// partition, or its first chunk on the streamed workload, with the cohort
// size (real or virtual) that scales the dual.
func (in *inputs) hlBlock() (x *linalg.Matrix, y []float64, cohort int) {
	p := in.parts[0]
	if in.w.ChunkRows == 0 {
		return p.X, p.Y, in.w.M
	}
	rows := min(in.w.ChunkRows, p.Len())
	for _, q := range in.parts { // every chunk is a virtual learner
		cohort += (q.Len() + in.w.ChunkRows - 1) / in.w.ChunkRows
	}
	return &linalg.Matrix{Rows: rows, Cols: p.X.Cols, Data: p.X.Data[:rows*p.X.Cols]}, p.Y[:rows], cohort
}

func isHL(s scheme) bool { return s == schemeHL || s == schemeHLStreamed }

func filled(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// dfs: the streamed workload's storage path, alone.
func (r *replayer) dfs() error {
	if r.w.Scheme != schemeHLStreamed {
		return nil
	}
	c, err := newDFSCluster()
	if err != nil {
		return err
	}
	const path = "/replay/0.rows"
	p := r.parts[0]
	t0 := time.Now()
	if err := dataset.WriteDFS(c, path, p, "dn0"); err != nil {
		return err
	}
	wrote := time.Since(t0)
	size, err := c.FileSize(path)
	if err != nil {
		return err
	}
	mb := float64(size) / 1e6
	r.set("dfs.write_mb_s", mb/wrote.Seconds())

	buf := make([]byte, dfsBlockSize)
	t, err := r.clock(func() error {
		for off := 0; off < size; off += len(buf) {
			if _, err := c.ReadAt(path, int64(off), buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("dfs.readat_mb_s", mb/(t/1e3))

	// The mapper's access pattern: chunks in a shuffled order, the next one
	// prefetched while this one's Gram is built.
	src, err := dataset.OpenDFS(c, path)
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	pf, err := dataset.NewPrefetcher(src, r.w.ChunkRows, reg)
	if err != nil {
		return err
	}
	defer pf.Close()
	order := rand.New(rand.NewSource(consensusSeed)).Perm(pf.Chunks())
	var waits []float64
	q := linalg.NewMatrix(r.w.ChunkRows, r.w.ChunkRows)
	for epoch := 0; epoch < 3; epoch++ {
		for i, idx := range order {
			t0 := time.Now()
			ch, err := pf.Fetch(idx)
			if err != nil {
				return err
			}
			waits = append(waits, ms(time.Since(t0)))
			pf.Prefetch(order[(i+1)%len(order)])
			if q, err = linalg.MatMulTInto(ch.X, ch.X, q); err != nil {
				return err
			}
		}
	}
	r.set("dataset.fetch_wait_ms_p50", median(waits))
	snap := reg.Snapshot()
	hits, misses := snap.CounterTotal("ppml_prefetch_hits_total"), snap.CounterTotal("ppml_prefetch_misses_total")
	if hits+misses > 0 {
		r.set("dataset.prefetch_hit_ratio", float64(hits)/float64(hits+misses))
	}
	return nil
}

// linalg: the dense Gram of the HL dual, the Cholesky factor + solve of
// the vertical schemes' ridge systems, and Xᵀv.
func (r *replayer) linalg() error {
	p := r.parts[0]
	if isHL(r.w.Scheme) {
		x, _, _ := r.hlBlock()
		t, err := r.clock(func() error {
			_, err := linalg.MatMulT(x, x)
			return err
		})
		if err != nil {
			return err
		}
		r.set("linalg.gram_ms", t)
		r.set("linalg.gram_bytes", float64(8*x.Rows*x.Rows))
	}

	// (I + ρ·XᵀX) for VL, (I + ρ·K) for VK: factored once, solved per round.
	var sys *linalg.Matrix
	var err error
	switch r.w.Scheme {
	case schemeVL:
		xt := p.X.T()
		sys, err = linalg.MatMulT(xt, xt)
	case schemeVK:
		sys = kernel.GramMatrix(r.kernel(), p.X)
	}
	if err != nil {
		return err
	}
	if sys != nil {
		sys.Scale(paramRho)
		if err := sys.AddScaledIdentity(1); err != nil {
			return err
		}
		var ch *linalg.Cholesky
		t, err := r.clock(func() error {
			ch, err = linalg.FactorizeCholesky(sys)
			return err
		})
		if err != nil {
			return err
		}
		r.set("linalg.cholesky_ms", t)
		rhs, dst := filled(sys.Rows, 1), make([]float64, sys.Rows)
		t, err = r.clock(func() error {
			_, err := ch.SolveVec(rhs, dst)
			return err
		})
		if err != nil {
			return err
		}
		r.set("linalg.cholesky_solve_ms", t)
	}

	v, dst := filled(p.X.Rows, 1), make([]float64, p.X.Cols)
	t, err := r.clock(func() error {
		_, err := p.X.MulVecT(v, dst)
		return err
	})
	if err != nil {
		return err
	}
	r.set("linalg.mulvect_ms", t)
	return nil
}

// kernels: the kernel Gram of learner 0's rows and, for HK, the
// cross-kernel against l landmark-shaped rows.
func (r *replayer) kernels() error {
	if r.w.Scheme != schemeHK && r.w.Scheme != schemeVK {
		return nil
	}
	p := r.parts[0]
	t, err := r.clock(func() error {
		kernel.GramMatrix(r.kernel(), p.X)
		return nil
	})
	if err != nil {
		return err
	}
	r.set("kernel.gram_ms", t)
	if r.w.Scheme != schemeHK {
		return nil
	}
	l := min(paramLandmarks, r.eval.Len())
	landmarks := &linalg.Matrix{Rows: l, Cols: r.eval.X.Cols, Data: r.eval.X.Data[:l*r.eval.X.Cols]}
	t, err = r.clock(func() error {
		_, err := kernel.Matrix(r.kernel(), p.X, landmarks)
		return err
	})
	if err != nil {
		return err
	}
	r.set("kernel.cross_ms", t)
	return nil
}

// qp: learner 0's HL dual, Q = η·YXXᵀY + yyᵀ/ρ. The cold solve is
// round 0 (P = −1, zero start); the warm solve is round 1's problem, with
// the consensus taken to be learner 0's own round-0 model, started from the
// round-0 solution — what every later round looks like.
func (r *replayer) qp() error {
	if !isHL(r.w.Scheme) {
		return nil
	}
	x, y, cohort := r.hlBlock()
	eta := float64(cohort) / (1 + paramRho*float64(cohort))
	q, err := linalg.MatMulT(x, x)
	if err != nil {
		return err
	}
	for i := 0; i < q.Rows; i++ {
		row := q.Row(i)
		for j := range row {
			row[j] = row[j]*eta*y[i]*y[j] + y[i]*y[j]/paramRho
		}
	}
	p := filled(x.Rows, -1)
	var scratch qp.Scratch
	var res *qp.Result
	solve := func(opts ...qp.Option) func() error {
		opts = append(opts, qp.WithTolerance(1e-6), qp.WithScratch(&scratch))
		return func() error {
			res, err = qp.SolveBox(qp.Problem{Q: q, P: p, C: paramC}, opts...)
			return err
		}
	}
	t, err := r.clock(solve())
	if err != nil {
		return err
	}
	r.set("qp.solve_cold_ms", t)
	r.set("qp.iters_cold", float64(res.Iterations))

	lambda := append([]float64(nil), res.Lambda...)
	yl := make([]float64, len(y))
	sumYL := 0.0
	for i := range yl {
		yl[i] = y[i] * lambda[i]
		sumYL += yl[i]
	}
	w, err := x.MulVecT(yl, nil)
	if err != nil {
		return err
	}
	linalg.Scale(eta, w)
	b := sumYL / paramRho
	for i := range p {
		p[i] = eta*paramRho*y[i]*linalg.Dot(x.Row(i), w) - 1 + b*y[i]
	}
	t, err = r.clock(solve(qp.WithWarmStart(lambda)))
	if err != nil {
		return err
	}
	r.set("qp.solve_warm_ms", t)
	r.set("qp.iters_warm", float64(res.Iterations))
	return nil
}

// shareValue is a public stand-in for a learner's contribution.
func shareValue(dim int) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = math.Sin(float64(i))
	}
	return v
}

// fixedpoint: encode and decode of one share, per element. Small
// shares are encoded many times per sample so the clock reads more than its
// own cost.
func (r *replayer) fixedpoint() error {
	dim := r.shareDim()
	codec := fixedpoint.Default()
	v := shareValue(dim)
	inner := max(1, (1<<16)/dim)
	var enc []uint64
	var dec []float64
	var err error
	t, err := r.clock(func() error {
		for i := 0; i < inner; i++ {
			if enc, err = codec.EncodeVec(v, enc); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("fixedpoint.encode_ns_per_elem", t*1e6/float64(inner*dim))
	t, err = r.clock(func() error {
		for i := 0; i < inner; i++ {
			if dec, err = codec.DecodeVec(enc, dec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("fixedpoint.decode_ns_per_elem", t*1e6/float64(inner*dim))
	return nil
}

// securesum: one learner's seeded share (encode + 2(M−1) mask
// expansions + wire encoding), the reducer's collect (M adds + decode), and
// the per-round-mask ablation (fresh masks for every peer, then the share).
// The collected sum is checked against M times the value.
func (r *replayer) securesum() error {
	dim, cohort := r.shareDim(), r.w.M
	codec := fixedpoint.Default()
	v := shareValue(dim)

	sessions := make([]*securesum.SeededSession, cohort)
	for i := range sessions {
		s, err := securesum.NewSeededSession(i, cohort, dim, 1, codec, nil)
		if err != nil {
			return err
		}
		sessions[i] = s
	}
	for i, s := range sessions {
		for j, peer := range sessions {
			if i == j {
				continue
			}
			seed, err := s.SeedFor(j)
			if err != nil {
				return err
			}
			if err := peer.SetPeerSeed(i, seed); err != nil {
				return err
			}
		}
	}
	const round = 7
	t, err := r.clock(func() error {
		_, err := sessions[0].RoundShareBytes(round, v)
		return err
	})
	if err != nil {
		return err
	}
	r.set("securesum.share_ms", t)
	r.set("securesum.share_ns_per_elem_peer", t*1e6/float64(dim*(cohort-1)))

	shares := make([][]uint64, cohort)
	for i, s := range sessions {
		wire, err := s.RoundShareBytes(round, v)
		if err != nil {
			return err
		}
		if shares[i], err = securesum.DecodeShares(wire); err != nil {
			return err
		}
	}
	col, err := securesum.NewCollector(cohort, dim, codec)
	if err != nil {
		return err
	}
	var sum []float64
	t, err = r.clock(func() error {
		col.Reset()
		for _, sh := range shares {
			if err := col.Add(sh); err != nil {
				return err
			}
		}
		sum, err = col.SumInto(sum)
		return err
	})
	if err != nil {
		return err
	}
	r.set("securesum.collect_ms", t)
	for i := range sum {
		if math.Abs(sum[i]-float64(cohort)*v[i]) > float64(cohort)*codec.Resolution() {
			return fmt.Errorf("securesum: collected sum[%d] = %g, want %g", i, sum[i], float64(cohort)*v[i])
		}
	}

	parties := make([]*securesum.Party, cohort)
	for i := range parties {
		if parties[i], err = securesum.NewParty(i, cohort, dim, codec, nil); err != nil {
			return err
		}
	}
	var perRound []float64
	for r := 0; r < 5; r++ {
		var mine time.Duration
		for i, p := range parties {
			p.Reset()
			t0 := time.Now()
			masks, err := p.MaskForAll()
			if err != nil {
				return err
			}
			if i == 0 {
				mine = time.Since(t0)
			}
			for j, peer := range parties {
				if j != i {
					if err := peer.SetPeerMask(i, masks[j]); err != nil {
						return err
					}
				}
			}
		}
		t0 := time.Now()
		if _, err := parties[0].Share(v); err != nil {
			return err
		}
		perRound = append(perRound, ms(mine+time.Since(t0)))
	}
	r.set("securesum.perround_share_ms", median(perRound))
	return nil
}

// paillierDim is hl_rounds_tcp's share: 9 features and the bias.
const paillierDim = 10

// paillier: the homomorphic ablation backend at a 1,024-bit key with
// packing, on a share of hl_rounds_tcp's size whatever the workload (no
// workload runs it; 4,000-element shares would take minutes).
func (r *replayer) paillier() error {
	cohort := r.w.M
	sk, err := paillier.GenerateKey(nil, 1024)
	if err != nil {
		return err
	}
	pack, err := paillier.NewPacking(&sk.PublicKey, cohort, 0)
	if err != nil {
		return err
	}
	vals, err := fixedpoint.Default().EncodeVec(shareValue(paillierDim), nil)
	if err != nil {
		return err
	}
	var cs []*big.Int
	t, err := r.clock(func() error {
		cs, err = pack.EncryptVec(nil, vals)
		return err
	})
	if err != nil {
		return err
	}
	r.set("paillier.encrypt_vec_ms", t)
	r.set("paillier.ciphertexts_per_vec", float64(pack.Ciphertexts(paillierDim)))

	var got []uint64
	t, err = r.clock(func() error {
		acc := append([]*big.Int(nil), cs...)
		for i := 1; i < cohort; i++ {
			for j := range acc {
				acc[j] = sk.Add(acc[j], cs[j])
			}
		}
		got, err = pack.DecryptVec(sk, acc, paillierDim, got)
		return err
	})
	if err != nil {
		return err
	}
	r.set("paillier.fold_decrypt_ms", t)
	for i := range got {
		if got[i] != uint64(cohort)*vals[i] {
			return fmt.Errorf("paillier: folded slot %d = %d, want %d", i, got[i], uint64(cohort)*vals[i])
		}
	}
	return nil
}

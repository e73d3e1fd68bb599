package consensus

import (
	"bytes"
	"context"
	"math"
	"sort"
	"sync"
	"testing"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/fixedpoint"
	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/mapreduce"
	"github.com/ppml-go/ppml/internal/securesum"
	"github.com/ppml-go/ppml/internal/transport"
)

// wiretapNetwork records every message payload crossing an InProc network —
// the view of a passive adversary that owns the fabric (stronger than the
// paper's semi-honest Reducer, which sees only traffic addressed to it).
type wiretapNetwork struct {
	inner *transport.InProc

	mu       sync.Mutex
	payloads map[string][][]byte // kind → payloads
}

func newWiretapNetwork() *wiretapNetwork {
	return &wiretapNetwork{
		inner:    transport.NewInProc(),
		payloads: make(map[string][][]byte),
	}
}

func (w *wiretapNetwork) Endpoint(name string) (transport.Endpoint, error) {
	ep, err := w.inner.Endpoint(name)
	if err != nil {
		return nil, err
	}
	return &wiretapEndpoint{Endpoint: ep, net: w}, nil
}

func (w *wiretapNetwork) Stats() transport.Stats { return w.inner.Stats() }
func (w *wiretapNetwork) Close() error           { return w.inner.Close() }

func (w *wiretapNetwork) record(kind string, payload []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.payloads[kind] = append(w.payloads[kind], append([]byte(nil), payload...))
}

func (w *wiretapNetwork) recorded(kind string) [][]byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.payloads[kind]
}

type wiretapEndpoint struct {
	transport.Endpoint
	net *wiretapNetwork
}

func (e *wiretapEndpoint) Send(ctx context.Context, to, kind string, hdr transport.Header, payload []byte) error {
	e.net.record(kind, payload)
	return e.Endpoint.Send(ctx, to, kind, hdr, payload)
}

// TestMaskedTrainingHidesPlaintextShares runs the same training job twice —
// plain and masked aggregation — and verifies that every share payload the
// adversary wiretaps in the plain run is absent from the masked run's
// traffic: the masked shares are the plaintext plus unknown uniform ring
// elements, so no plaintext share survives on the wire.
func TestMaskedTrainingHidesPlaintextShares(t *testing.T) {
	d := dataset.TwoGaussians("g", 120, 4, 3, 61)
	cfg := Config{C: 10, Rho: 50, MaxIterations: 6, Distributed: true}

	runWith := func(agg mapreduce.Aggregation) *wiretapNetwork {
		t.Helper()
		net := newWiretapNetwork()
		c := cfg
		c.Network = net
		c.Aggregation = agg
		parts := horizontalParts(t, d, 3, 7)
		if _, _, err := TrainHorizontalLinear(context.Background(), parts, c); err != nil {
			t.Fatal(err)
		}
		return net
	}

	plainNet := runWith(mapreduce.AggregationPlain)
	maskedNet := runWith(mapreduce.AggregationMasked)

	plainShares := plainNet.recorded(mapreduce.KindPlainShare)
	if len(plainShares) == 0 {
		t.Fatal("wiretap captured no plain shares; test harness broken")
	}
	maskedShares := maskedNet.recorded(securesum.KindShare)
	if len(maskedShares) == 0 {
		t.Fatal("wiretap captured no masked shares; test harness broken")
	}
	// The runs compute identical iterates (same partitions, same math), so a
	// leak would reproduce a plain payload bit-for-bit inside the masked
	// traffic. None may appear — not among shares, not among seeds.
	var maskedAll [][]byte
	maskedAll = append(maskedAll, maskedShares...)
	maskedAll = append(maskedAll, maskedNet.recorded(securesum.KindSeed)...)
	for i, plain := range plainShares {
		for j, masked := range maskedAll {
			if bytes.Equal(plain, masked) {
				t.Fatalf("plain share %d appeared verbatim as masked payload %d", i, j)
			}
		}
	}
	// Yet both runs reach the same consensus: the sums (and models) agree,
	// which the TestHLDistributedMatchesLocal suite already pins down.
}

// TestSeededTranscriptShape pins down the traffic shape of masking on a full
// training run: its only masking traffic is the m(m−1)-message seed exchange
// at session setup, so a masked run sends exactly m(m−1) messages more than
// the plain run of the same job, and no mask ever crosses the wire. The
// transcript must still hide every plaintext share, and two masked runs must
// put different shares on the wire (independent masks) yet train the
// identical model.
func TestSeededTranscriptShape(t *testing.T) {
	d := dataset.TwoGaussians("g", 120, 4, 3, 61)
	const m = 3
	cfg := Config{C: 10, Rho: 50, MaxIterations: 6, Distributed: true}

	runWith := func(agg mapreduce.Aggregation) (*wiretapNetwork, *LinearModel, int) {
		t.Helper()
		net := newWiretapNetwork()
		c := cfg
		c.Network = net
		c.Aggregation = agg
		parts := horizontalParts(t, d, m, 7)
		model, h, err := TrainHorizontalLinear(context.Background(), parts, c)
		if err != nil {
			t.Fatal(err)
		}
		return net, model, h.Iterations
	}

	plainNet, _, plainIters := runWith(mapreduce.AggregationPlain)
	seededNet, seededModel, seededIters := runWith(mapreduce.AggregationMasked)
	againNet, againModel, againIters := runWith(mapreduce.AggregationMasked)
	if seededIters != plainIters || againIters != seededIters {
		t.Fatalf("iteration counts diverged: plain %d, seeded %d and %d", plainIters, seededIters, againIters)
	}

	// Exactly one seed exchange, and nothing else the plain run lacks.
	if got, want := len(seededNet.recorded(securesum.KindSeed)), m*(m-1); got != want {
		t.Errorf("seeded run exchanged %d seeds, want %d (once per ordered pair)", got, want)
	}
	if got, want := seededNet.Stats().Messages-plainNet.Stats().Messages, int64(m*(m-1)); got != want {
		t.Errorf("masked-vs-plain message delta = %d, want %d (the seed exchange)", got, want)
	}

	// No plain share payload appears verbatim anywhere in the masked
	// transcript.
	seededShares := seededNet.recorded(securesum.KindShare)
	if len(seededShares) == 0 {
		t.Fatal("wiretap captured no seeded shares; test harness broken")
	}
	for kind := range seededNet.payloads {
		for _, masked := range seededNet.recorded(kind) {
			for i, plain := range plainNet.recorded(mapreduce.KindPlainShare) {
				if bytes.Equal(plain, masked) {
					t.Fatalf("plain share %d appeared verbatim as a %q payload", i, kind)
				}
			}
		}
	}

	// Fresh seeds make fresh masks: no share repeats across the two masked
	// runs, yet the masks telescope to zero in both, so the models are
	// bit-identical.
	for i, a := range seededShares {
		for j, b := range againNet.recorded(securesum.KindShare) {
			if bytes.Equal(a, b) {
				t.Fatalf("share %d of one run equals share %d of the other — masks are not independent", i, j)
			}
		}
	}
	for j := range seededModel.W {
		if seededModel.W[j] != againModel.W[j] {
			t.Errorf("W[%d]: %g and %g — masked runs must train identical models", j, seededModel.W[j], againModel.W[j])
		}
	}
	if seededModel.B != againModel.B {
		t.Errorf("B: %g and %g", seededModel.B, againModel.B)
	}
}

// TestMaskedSharesLookUniform checks a coarse statistical property of the
// wire: masked share bytes should be near-uniform (masks dominate), unlike
// plaintext float64 payloads whose exponent bytes repeat heavily.
func TestMaskedSharesLookUniform(t *testing.T) {
	d := dataset.TwoGaussians("g", 100, 6, 3, 67)
	net := newWiretapNetwork()
	cfg := Config{C: 10, Rho: 50, MaxIterations: 8, Distributed: true, Network: net}
	parts := horizontalParts(t, d, 4, 7)
	if _, _, err := TrainHorizontalLinear(context.Background(), parts, cfg); err != nil {
		t.Fatal(err)
	}
	var counts [256]int
	total := 0
	for _, p := range net.recorded(securesum.KindShare) {
		for _, b := range p {
			counts[b]++
			total++
		}
	}
	if total < 1000 {
		t.Fatalf("only %d share bytes captured", total)
	}
	// Chi-square-ish sanity: no byte value may dominate. Uniform expectation
	// is total/256; allow a generous 5x.
	limit := 5 * total / 256
	for v, c := range counts {
		if c > limit {
			t.Errorf("byte value %#x appears %d times (limit %d); masked shares not uniform", v, c, limit)
		}
	}
}

// TestReverseEngineeringAttackBlockedByMasking demonstrates the Section V
// threat concretely. An adversary collecting a learner's per-iteration local
// results (possible under plain aggregation) recovers the direction of that
// learner's private class separation; against masked traffic the same attack
// recovers nothing.
func TestReverseEngineeringAttackBlockedByMasking(t *testing.T) {
	// High dimension so a random direction's cosine concentrates near zero
	// (std ≈ 1/√k), separating true recovery from chance.
	d := dataset.TwoGaussians("g", 300, 40, 4, 73)
	k := d.Features()

	// Both arms capture ring shares in the one wire format and read them
	// with the one decoder; only the masks differ.
	codec := fixedpoint.Default()
	decode := func(b []byte) []float64 {
		shares, err := securesum.DecodeShares(b)
		if err != nil {
			t.Fatal(err)
		}
		v, err := codec.DecodeVec(shares, nil)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	attack := func(agg mapreduce.Aggregation, kind string) float64 {
		t.Helper()
		net := newWiretapNetwork()
		cfg := Config{C: 10, Rho: 50, MaxIterations: 10, Distributed: true,
			Network: net, Aggregation: agg}
		parts := horizontalParts(t, d, 3, 7)
		if _, _, err := TrainHorizontalLinear(context.Background(), parts, cfg); err != nil {
			t.Fatal(err)
		}
		// The true private signal of SOME learner: its local class-mean
		// difference. The adversary's estimate: the average of the iterate
		// payloads it captured (every third share belongs to one learner;
		// averaging across learners still exposes the shared signal, which
		// suffices for this demonstration).
		signal := make([]float64, k)
		pos, neg := make([]float64, k), make([]float64, k)
		var np, nn float64
		p0 := parts[0]
		for i := 0; i < p0.Len(); i++ {
			if p0.Y[i] > 0 {
				linalg.Axpy(1, p0.X.Row(i), pos)
				np++
			} else {
				linalg.Axpy(1, p0.X.Row(i), neg)
				nn++
			}
		}
		for j := 0; j < k; j++ {
			signal[j] = pos[j]/np - neg[j]/nn
		}
		est := make([]float64, k)
		captured := net.recorded(kind)
		if len(captured) == 0 {
			t.Fatalf("no %q payloads captured", kind)
		}
		for _, payload := range captured {
			v := decode(payload)
			if len(v) < k {
				t.Fatalf("decoded payload of %d values", len(v))
			}
			linalg.Axpy(1, v[:k], est)
		}
		// Cosine similarity between the estimate and the private signal.
		cos := linalg.Dot(est, signal) / (linalg.Norm2(est)*linalg.Norm2(signal) + 1e-30)
		return math.Abs(cos)
	}

	plainCos := attack(mapreduce.AggregationPlain, mapreduce.KindPlainShare)
	// Against masked traffic the estimate is a fresh crypto/rand direction in
	// R^40 every training, so one trial's |cos| (std ≈ 0.16) exceeds 0.35
	// about 3% of the time. The median of 9 independent trainings does so only
	// when 5 of them do: below 1e-5.
	const trials = 9
	maskedCosines := make([]float64, trials)
	for i := range maskedCosines {
		maskedCosines[i] = attack(mapreduce.AggregationMasked, securesum.KindShare)
	}
	sort.Float64s(maskedCosines)
	maskedCos := maskedCosines[trials/2]

	// Written so that a NaN cosine (a decoder misreading the shares) fails
	// both checks instead of passing them.
	if !(plainCos >= 0.8) {
		t.Errorf("attack on plain traffic recovered cosine %.3f; expected ≥ 0.8 (threat is real)", plainCos)
	}
	if !(maskedCos <= 0.35) {
		t.Errorf("attack on masked traffic recovered median cosine %.3f over %d trainings; masks failed to hide the signal", maskedCos, trials)
	}
	t.Logf("attack cosine: plain %.3f vs masked median %.3f (max %.3f)", plainCos, maskedCos, maskedCosines[trials-1])
}

package securesum

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"github.com/ppml-go/ppml/internal/fixedpoint"
)

// deterministicRand adapts math/rand for reproducible protocol tests.
type deterministicRand struct{ r *rand.Rand }

func (d deterministicRand) Read(p []byte) (int, error) { return d.r.Read(p) }

func detRand(seed int64) deterministicRand {
	return deterministicRand{r: rand.New(rand.NewSource(seed))}
}

func plainSum(values [][]float64) []float64 {
	out := make([]float64, len(values[0]))
	for _, v := range values {
		for j, x := range v {
			out[j] += x
		}
	}
	return out
}

func randomValues(rng *rand.Rand, m, dim int, scale float64) [][]float64 {
	values := make([][]float64, m)
	for i := range values {
		values[i] = make([]float64, dim)
		for j := range values[i] {
			values[i][j] = scale * rng.NormFloat64()
		}
	}
	return values
}

// maskedSum runs the whole protocol in memory over the given private
// vectors, returning their sum: every party's masks go to its peers, every
// share to one Collector.
func maskedSum(values [][]float64, codec fixedpoint.Codec, random io.Reader) ([]float64, error) {
	m := len(values)
	if m == 0 {
		return nil, fmt.Errorf("%w: no parties", ErrBadParty)
	}
	dim := len(values[0])
	parties := make([]*Party, m)
	for i := range parties {
		if len(values[i]) != dim {
			return nil, fmt.Errorf("%w: party %d has %d elements, want %d", ErrBadParty, i, len(values[i]), dim)
		}
		p, err := NewParty(i, m, dim, codec, random)
		if err != nil {
			return nil, err
		}
		parties[i] = p
	}
	for i := range parties {
		masks, err := parties[i].MaskForAll()
		if err != nil {
			return nil, err
		}
		for j := range parties {
			if i == j {
				continue
			}
			if err := parties[j].SetPeerMask(i, masks[j]); err != nil {
				return nil, err
			}
		}
	}
	col, err := NewCollector(m, dim, codec)
	if err != nil {
		return nil, err
	}
	for i := range parties {
		share, err := parties[i].Share(values[i])
		if err != nil {
			return nil, err
		}
		if err := col.Add(share); err != nil {
			return nil, err
		}
	}
	return col.SumInto(nil)
}

func TestMaskedSumCorrect(t *testing.T) {
	codec := fixedpoint.Default()
	rng := rand.New(rand.NewSource(1))
	for _, m := range []int{1, 2, 3, 4, 8} {
		values := randomValues(rng, m, 7, 100)
		got, err := maskedSum(values, codec, detRand(9))
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		want := plainSum(values)
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-6 {
				t.Fatalf("m=%d element %d: %g, want %g", m, j, got[j], want[j])
			}
		}
	}
}

func TestMaskedSumMismatchedDims(t *testing.T) {
	codec := fixedpoint.Default()
	_, err := maskedSum([][]float64{{1, 2}, {3}}, codec, detRand(1))
	if !errors.Is(err, ErrBadParty) {
		t.Errorf("mismatched dims: err = %v, want ErrBadParty", err)
	}
	if _, err := maskedSum(nil, codec, detRand(1)); !errors.Is(err, ErrBadParty) {
		t.Errorf("no parties: err = %v, want ErrBadParty", err)
	}
}

func TestSharesHideValues(t *testing.T) {
	// The masked share a party emits must not equal its raw encoding: the
	// Reducer sees only value + (unknown uniform ring element).
	codec := fixedpoint.Default()
	value := []float64{42.5, -1.25, 0}
	p0, err := NewParty(0, 3, 3, codec, detRand(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p0.MaskForAll(); err != nil {
		t.Fatal(err)
	}
	for peer := 1; peer < 3; peer++ {
		mask, err := randomVector(detRand(int64(peer)), 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := p0.SetPeerMask(peer, mask); err != nil {
			t.Fatal(err)
		}
	}
	share, err := p0.Share(value)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := codec.EncodeVec(value, nil)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range raw {
		if share[i] != raw[i] {
			same = false
		}
	}
	if same {
		t.Error("masked share equals raw encoding; masking is broken")
	}
}

func TestSharesAreRandomizedAcrossRounds(t *testing.T) {
	// Same inputs, fresh randomness: the Reducer's observed shares differ,
	// the decoded sum does not.
	codec := fixedpoint.Default()
	values := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	s1, err := maskedSum(values, codec, detRand(100))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := maskedSum(values, codec, detRand(200))
	if err != nil {
		t.Fatal(err)
	}
	for j := range s1 {
		if s1[j] != s2[j] {
			t.Errorf("sum differs across randomness: %g vs %g", s1[j], s2[j])
		}
	}
}

func TestCoalitionResistance(t *testing.T) {
	// Parties 0 and 1 are honest; parties 2..m-1 collude with the Reducer.
	// The coalition knows: every share, and every mask on channels touching a
	// corrupt party. Subtracting everything it knows from the two honest
	// shares leaves share0' + share1' = v0 + v1 + (mask01 − mask10) + ... —
	// the pairwise masks between the honest parties remain, so individual
	// honest inputs stay hidden, while their *joint* contribution is exactly
	// what cancels when the two are added.
	codec := fixedpoint.Default()
	const m, dim = 4, 3
	random := detRand(31)

	parties := make([]*Party, m)
	for i := range parties {
		p, err := NewParty(i, m, dim, codec, random)
		if err != nil {
			t.Fatal(err)
		}
		parties[i] = p
	}
	// masks[i][j] = mask generated by i for j.
	masks := make([][][]uint64, m)
	for i := range masks {
		masks[i] = make([][]uint64, m)
	}
	for i := 0; i < m; i++ {
		all, err := parties[i].MaskForAll()
		if err != nil {
			t.Fatal(err)
		}
		masks[i] = all
		for j := 0; j < m; j++ {
			if i == j {
				continue
			}
			if err := parties[j].SetPeerMask(i, all[j]); err != nil {
				t.Fatal(err)
			}
		}
	}
	values := [][]float64{{10, 20, 30}, {-5, 5, 0}, {1, 1, 1}, {2, 2, 2}}
	shares := make([][]uint64, m)
	for i := range shares {
		s, err := parties[i].Share(values[i])
		if err != nil {
			t.Fatal(err)
		}
		shares[i] = s
	}

	// Coalition reconstruction attempt against party 0: strip every mask on
	// channels involving corrupt parties (2, 3) from share 0.
	stripped := append([]uint64(nil), shares[0]...)
	for _, corrupt := range []int{2, 3} {
		if err := fixedpoint.SubVec(stripped, masks[0][corrupt]); err != nil { // 0 sent to corrupt
			t.Fatal(err)
		}
		if err := fixedpoint.AddVec(stripped, masks[corrupt][0]); err != nil { // corrupt sent to 0
			t.Fatal(err)
		}
	}
	// What remains is enc(v0) + mask(0→1) − mask(1→0), NOT enc(v0).
	raw0, err := codec.EncodeVec(values[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	leaked := true
	for i := range raw0 {
		if stripped[i] != raw0[i] {
			leaked = false
		}
	}
	if leaked {
		t.Fatal("coalition of m−2 parties recovered an honest value")
	}
	// But adding honest party 1's similarly stripped share recovers v0+v1 —
	// the protocol's intended disclosure, nothing more.
	stripped1 := append([]uint64(nil), shares[1]...)
	for _, corrupt := range []int{2, 3} {
		if err := fixedpoint.SubVec(stripped1, masks[1][corrupt]); err != nil {
			t.Fatal(err)
		}
		if err := fixedpoint.AddVec(stripped1, masks[corrupt][1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := fixedpoint.AddVec(stripped, stripped1); err != nil {
		t.Fatal(err)
	}
	joint, err := codec.DecodeVec(stripped, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := range joint {
		want := values[0][j] + values[1][j]
		if math.Abs(joint[j]-want) > 1e-6 {
			t.Errorf("joint honest sum[%d] = %g, want %g", j, joint[j], want)
		}
	}
}

func TestPartyProtocolViolations(t *testing.T) {
	codec := fixedpoint.Default()
	p, err := NewParty(0, 3, 2, codec, detRand(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.MaskForAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.MaskForAll(); !errors.Is(err, ErrProtocol) {
		t.Errorf("duplicate mask generation: err = %v, want ErrProtocol", err)
	}
	if err := p.SetPeerMask(1, []uint64{1}); !errors.Is(err, ErrProtocol) {
		t.Errorf("short mask: err = %v, want ErrProtocol", err)
	}
	if err := p.SetPeerMask(1, []uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := p.SetPeerMask(1, []uint64{1, 2}); !errors.Is(err, ErrProtocol) {
		t.Errorf("duplicate peer mask: err = %v, want ErrProtocol", err)
	}
	// Share before the round completes.
	if _, err := p.Share([]float64{1, 2}); !errors.Is(err, ErrIncomplete) {
		t.Errorf("early share: err = %v, want ErrIncomplete", err)
	}
	if _, err := p.Share([]float64{1}); !errors.Is(err, ErrBadParty) {
		t.Errorf("short value: err = %v, want ErrBadParty", err)
	}
}

func TestCollectorValidation(t *testing.T) {
	codec := fixedpoint.Default()
	if _, err := NewCollector(0, 2, codec); !errors.Is(err, ErrBadParty) {
		t.Errorf("m=0: err = %v, want ErrBadParty", err)
	}
	col, err := NewCollector(2, 2, codec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := col.SumInto(nil); !errors.Is(err, ErrIncomplete) {
		t.Errorf("early sum: err = %v, want ErrIncomplete", err)
	}
	if err := col.Add([]uint64{1}); !errors.Is(err, ErrProtocol) {
		t.Errorf("short share: err = %v, want ErrProtocol", err)
	}
	if err := col.Add([]uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := col.Add([]uint64{3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := col.Add([]uint64{5, 6}); !errors.Is(err, ErrProtocol) {
		t.Errorf("extra share: err = %v, want ErrProtocol", err)
	}
}

func TestEncodeDecodeShares(t *testing.T) {
	v := []uint64{0, 1, math.MaxUint64, 0x0123456789ABCDEF}
	enc := AppendShares(nil, v)
	back, err := DecodeShares(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if back[i] != v[i] {
			t.Fatalf("wire round trip differs at %d", i)
		}
	}
	if _, err := DecodeShares([]byte{1, 2, 3}); !errors.Is(err, ErrProtocol) {
		t.Errorf("ragged payload: err = %v, want ErrProtocol", err)
	}
	if !bytes.Equal(AppendShares(nil, nil), []byte{}) {
		t.Error("empty vector should encode to empty payload")
	}
}

func TestSingleParty(t *testing.T) {
	// m = 1: no peers, the "sum" is the value itself.
	codec := fixedpoint.Default()
	got, err := maskedSum([][]float64{{3.5, -2}}, codec, detRand(2))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3.5 || got[1] != -2 {
		t.Errorf("single party sum = %v, want [3.5 -2]", got)
	}
}

// TestShareRejectsWrappingSum: two values inside the codec's range whose sum
// is not would wrap silently at the Reducer, which sees only the ring sum, so
// each party type rejects its own share with fixedpoint.ErrRange. A value
// exactly at MaxAbs/m still sums exactly.
func TestShareRejectsWrappingSum(t *testing.T) {
	codec := fixedpoint.Default()
	values := [][]float64{{5e9}, {5e9}}
	if _, err := maskedSum(values, codec, detRand(1)); !errors.Is(err, fixedpoint.ErrRange) {
		t.Errorf("Party: 5e9 + 5e9: err = %v, want ErrRange", err)
	}
	ss := wireSeededSessions(t, 2, 1, 3)
	for i, s := range ss {
		if _, err := s.RoundShareFor(0, values[i], nil); !errors.Is(err, fixedpoint.ErrRange) {
			t.Errorf("SeededSession %d: 5e9 + 5e9: err = %v, want ErrRange", i, err)
		}
	}

	bound := codec.MaxAbs() / 2
	atBound := [][]float64{{bound, -bound}, {bound, -bound}}
	got, err := maskedSum(atBound, codec, detRand(2))
	if err != nil {
		t.Fatalf("Party at the bound: %v", err)
	}
	col, err := NewCollector(2, 2, codec)
	if err != nil {
		t.Fatal(err)
	}
	ss = wireSeededSessions(t, 2, 2, 4)
	for i, s := range ss {
		share, err := s.RoundShareFor(0, atBound[i], nil)
		if err != nil {
			t.Fatalf("SeededSession %d at the bound: %v", i, err)
		}
		if err := col.Add(share); err != nil {
			t.Fatal(err)
		}
	}
	seeded, err := col.SumInto(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2 * bound, -2 * bound}
	for j := range want {
		if got[j] != want[j] || seeded[j] != want[j] {
			t.Errorf("element %d at the bound: Party %g, SeededSession %g, want %g", j, got[j], seeded[j], want[j])
		}
	}
}

// TestMaskForAllMatchesPerPeerSemantics checks the batched mask generation:
// every peer gets a dim-length mask, each recorded as that peer's (so Share
// sees a complete round), the self slot is nil, and repeated generation is
// rejected.
func TestMaskForAllMatchesPerPeerSemantics(t *testing.T) {
	codec := fixedpoint.Default()
	const m, dim = 4, 5
	p, err := NewParty(1, m, dim, codec, detRand(7))
	if err != nil {
		t.Fatal(err)
	}
	masks, err := p.MaskForAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(masks) != m {
		t.Fatalf("len(masks) = %d, want %d", len(masks), m)
	}
	for peer, mask := range masks {
		if peer == 1 {
			if mask != nil {
				t.Errorf("self slot is non-nil")
			}
			continue
		}
		if len(mask) != dim {
			t.Errorf("mask for %d has %d elements, want %d", peer, len(mask), dim)
		}
		if got := p.sent[peer]; &got[0] != &mask[0] {
			t.Errorf("mask for %d not recorded in sent map", peer)
		}
	}
	// The round must now be fully "sent": after receiving peers' masks,
	// Share succeeds with no further mask step.
	for peer := 0; peer < m; peer++ {
		if peer == 1 {
			continue
		}
		if err := p.SetPeerMask(peer, make([]uint64, dim)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Share(make([]float64, dim)); err != nil {
		t.Fatalf("Share after MaskForAll: %v", err)
	}
	// Batched generation is the round's single mask step.
	if _, err := p.MaskForAll(); !errors.Is(err, ErrProtocol) {
		t.Errorf("second MaskForAll: err = %v, want ErrProtocol", err)
	}
}

// TestMaskForAllSingleBatchedRead verifies the point of the batch API: one
// round of masks consumes exactly one read from the randomness source.
func TestMaskForAllSingleBatchedRead(t *testing.T) {
	const m, dim = 5, 3
	src := &countingReader{r: detRand(11)}
	p, err := NewParty(0, m, dim, fixedpoint.Default(), src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.MaskForAll(); err != nil {
		t.Fatal(err)
	}
	if src.reads != 1 {
		t.Errorf("MaskForAll issued %d reads, want 1", src.reads)
	}
	if src.bytes != 8*dim*(m-1) {
		t.Errorf("MaskForAll read %d bytes, want %d", src.bytes, 8*dim*(m-1))
	}
}

type countingReader struct {
	r     deterministicRand
	reads int
	bytes int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	n, err := c.r.Read(p)
	c.bytes += n
	return n, err
}

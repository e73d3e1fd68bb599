package fixedpoint

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	for _, bad := range []uint{0, 63, 64, 100} {
		if _, err := New(bad); !errors.Is(err, ErrBadConfig) {
			t.Errorf("New(%d): err = %v, want ErrBadConfig", bad, err)
		}
	}
	c, err := New(16)
	if err != nil {
		t.Fatal(err)
	}
	if c.Resolution() != 1.0/65536 {
		t.Errorf("Resolution = %g, want 2^-16", c.Resolution())
	}
}

func TestRoundTripExactForRepresentable(t *testing.T) {
	c := Default()
	for _, v := range []float64{0, 1, -1, 0.5, -0.5, 123.25, -99.75, 1e6} {
		u, err := c.Encode(v)
		if err != nil {
			t.Fatalf("Encode(%g): %v", v, err)
		}
		if got := c.Decode(u); got != v {
			t.Errorf("round trip %g -> %g", v, got)
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	c := Default()
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > c.MaxAbs() {
			return true
		}
		u, err := c.Encode(v)
		if err != nil {
			return false
		}
		return math.Abs(c.Decode(u)-v) <= c.Resolution()/2+1e-18
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestEncodeErrors(t *testing.T) {
	c := Default()
	if _, err := c.Encode(math.NaN()); !errors.Is(err, ErrNotFinite) {
		t.Errorf("NaN: err = %v, want ErrNotFinite", err)
	}
	if _, err := c.Encode(math.Inf(1)); !errors.Is(err, ErrNotFinite) {
		t.Errorf("Inf: err = %v, want ErrNotFinite", err)
	}
	if _, err := c.Encode(c.MaxAbs() * 2); !errors.Is(err, ErrRange) {
		t.Errorf("overflow: err = %v, want ErrRange", err)
	}
	if _, err := c.Encode(-c.MaxAbs() * 2); !errors.Is(err, ErrRange) {
		t.Errorf("negative overflow: err = %v, want ErrRange", err)
	}
}

func TestRingAdditionMatchesFloatAddition(t *testing.T) {
	c := Default()
	f := func(a, b float64) bool {
		lim := c.MaxAbs() / 4
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) ||
			math.Abs(a) > lim || math.Abs(b) > lim {
			return true
		}
		ua, err := c.Encode(a)
		if err != nil {
			return false
		}
		ub, err := c.Encode(b)
		if err != nil {
			return false
		}
		sum := c.Decode(ua + ub)
		return math.Abs(sum-(a+b)) <= c.Resolution()+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestMaskingCancels(t *testing.T) {
	// The core secure-summation identity: (v + m) − m = v in the ring, for
	// any mask including ones that cause wraparound.
	c := Default()
	v, err := c.Encode(-42.5)
	if err != nil {
		t.Fatal(err)
	}
	masks := []uint64{0, 1, math.MaxUint64, math.MaxUint64 / 2, 0xDEADBEEF12345678}
	for _, m := range masks {
		if got := c.Decode(v + m - m); got != -42.5 {
			t.Errorf("mask %x: got %g, want -42.5", m, got)
		}
	}
}

func TestVecOps(t *testing.T) {
	c := Default()
	v := []float64{1.5, -2.25, 3}
	enc, err := c.EncodeVec(v, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.DecodeVec(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if dec[i] != v[i] {
			t.Errorf("vec round trip [%d]: %g vs %g", i, dec[i], v[i])
		}
	}
	acc := append([]uint64(nil), enc...)
	if err := AddVec(acc, enc); err != nil {
		t.Fatal(err)
	}
	dbl, err := c.DecodeVec(acc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if dbl[i] != 2*v[i] {
			t.Errorf("AddVec [%d]: %g, want %g", i, dbl[i], 2*v[i])
		}
	}
	if err := SubVec(acc, enc); err != nil {
		t.Fatal(err)
	}
	back, err := c.DecodeVec(acc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if back[i] != v[i] {
			t.Errorf("SubVec [%d]: %g, want %g", i, back[i], v[i])
		}
	}
}

func TestVecErrors(t *testing.T) {
	c := Default()
	if _, err := c.EncodeVec([]float64{math.NaN()}, nil); err == nil {
		t.Error("EncodeVec(NaN) succeeded")
	}
	if _, err := c.EncodeVec([]float64{1, 2, 3}, make([]uint64, 2, 2)); !errors.Is(err, ErrBadConfig) {
		t.Errorf("EncodeVec small dst: err = %v, want ErrBadConfig", err)
	}
	if _, err := c.DecodeVec([]uint64{1, 2, 3}, make([]float64, 2, 2)); !errors.Is(err, ErrBadConfig) {
		t.Errorf("DecodeVec small dst: err = %v, want ErrBadConfig", err)
	}
	if err := AddVec([]uint64{1}, []uint64{1, 2}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("AddVec mismatch: err = %v, want ErrBadConfig", err)
	}
	if err := SubVec([]uint64{1}, []uint64{1, 2}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("SubVec mismatch: err = %v, want ErrBadConfig", err)
	}
}

// TestEncodeVecMatchesEncode pins the vector loop, which folds Encode's
// NaN/Inf/range checks into one comparison, to Encode itself: the same word
// where Encode succeeds, the same error (with its element index) where not.
func TestEncodeVecMatchesEncode(t *testing.T) {
	for _, fracBits := range []uint{DefaultFracBits, 16, 62} {
		c, err := New(fracBits)
		if err != nil {
			t.Fatal(err)
		}
		res, max := c.Resolution(), c.MaxAbs()
		half := 2.5 * res // scales to exactly 2.5: the tie math.Round breaks away from zero
		cases := []float64{
			0, math.Copysign(0, -1),
			half, math.Nextafter(half, 0), math.Nextafter(half, 1),
			-half, math.Nextafter(-half, 0), math.Nextafter(-half, -1),
			max, -max, math.Nextafter(max, 0), math.Nextafter(-max, 0),
			math.Nextafter(max, math.Inf(1)), math.Nextafter(-max, math.Inf(-1)),
			math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
		}
		for _, x := range cases {
			want, wantErr := c.Encode(x)
			got, gotErr := c.EncodeVec([]float64{1, x}, nil)
			switch {
			case wantErr == nil && gotErr == nil:
				if got[1] != want {
					t.Errorf("fracBits %d, %g: EncodeVec %#x, Encode %#x", fracBits, x, got[1], want)
				}
			case wantErr == nil || gotErr == nil:
				t.Errorf("fracBits %d, %g: EncodeVec err %v, Encode err %v", fracBits, x, gotErr, wantErr)
			default:
				if text := "element 1: " + wantErr.Error(); gotErr.Error() != text ||
					errors.Is(gotErr, ErrRange) != errors.Is(wantErr, ErrRange) ||
					errors.Is(gotErr, ErrNotFinite) != errors.Is(wantErr, ErrNotFinite) {
					t.Errorf("fracBits %d, %g: EncodeVec err %q, want %q", fracBits, x, gotErr, text)
				}
			}
		}
	}
}

// TestMaxSummands pins the summand bound: a codec made with ForSummands(m)
// encodes exactly the values of which m sum without leaving the ring's range.
func TestMaxSummands(t *testing.T) {
	c := Default()
	// n values of magnitude 1000 pass the n-summand bound, and their ring
	// sum decodes to the true total.
	n := int(c.MaxAbs() / 1000)
	enc, err := c.ForSummands(n).EncodeVec([]float64{1000, -1000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1000 * float64(n), -1000 * float64(n)} {
		if got := c.Decode(uint64(n) * enc[i]); math.Abs(got-want) > 1 {
			t.Errorf("sum of %d values decodes to %g, want %g", n, got, want)
		}
	}
	// One more summand and 1000 no longer fits.
	if _, err := c.ForSummands(n+1).EncodeVec([]float64{0, 1000}, nil); !errors.Is(err, ErrRange) {
		t.Errorf("1000 as one of %d summands: err = %v, want ErrRange", n+1, err)
	}
	// A value exactly at the bound still sums exactly, for both signs.
	for _, m := range []int{2, 3, 8} {
		bound := c.MaxAbs() / float64(m)
		enc, err := c.ForSummands(m).EncodeVec([]float64{bound, -bound}, nil)
		if err != nil {
			t.Fatalf("m=%d: value at the bound: %v", m, err)
		}
		for i, x := range []float64{bound, -bound} {
			if got, want := c.Decode(uint64(m)*enc[i]), float64(m)*x; math.Abs(got-want) > 1e-5 {
				t.Errorf("m=%d: the sum of %d × %g decodes to %g, want %g", m, m, x, got, want)
			}
		}
	}
	// Two values of 5e9 fit the per-value bound (≈ 8.59e9) but not the sum's.
	if _, err := c.EncodeVec([]float64{5e9}, nil); err != nil {
		t.Fatalf("5e9 under the per-value bound: %v", err)
	}
	if _, err := c.ForSummands(2).EncodeVec([]float64{5e9}, nil); !errors.Is(err, ErrRange) {
		t.Errorf("5e9 as one of 2 summands: err = %v, want ErrRange", err)
	}
}

// TestVecBufferReuse pins the capacity-reuse contract: when dst has enough
// capacity the encode/decode results live in dst's backing array, so steady-
// state iterative callers allocate nothing.
func TestVecBufferReuse(t *testing.T) {
	c := Default()
	v := []float64{1.5, -2.25, 3}
	enc := make([]uint64, 0, 8)
	enc2, err := c.EncodeVec(v, enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc2) != len(v) || &enc2[0] != &enc[:1][0] {
		t.Fatalf("EncodeVec did not reuse dst backing array")
	}
	dec := make([]float64, 5) // longer than v: reslice, not reallocate
	dec2, err := c.DecodeVec(enc2, dec)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec2) != len(v) || &dec2[0] != &dec[0] {
		t.Fatalf("DecodeVec did not reuse dst backing array")
	}
	for i := range v {
		if dec2[i] != v[i] {
			t.Errorf("roundtrip[%d] = %g, want %g", i, dec2[i], v[i])
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if enc2, err = c.EncodeVec(v, enc2); err != nil {
			t.Fatal(err)
		}
		if dec2, err = c.DecodeVec(enc2, dec2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state EncodeVec/DecodeVec allocate %g per run, want 0", allocs)
	}
}

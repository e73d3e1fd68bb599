// Package fixedpoint encodes float64 values into the ring Z_{2^64} so that
// secure-summation masks can be drawn uniformly at random from the whole
// ring. Uniform masks over a finite ring hide a masked value
// information-theoretically; masks added to raw floats would not (the
// exponent leaks magnitude), which is why the secure summation protocol of
// Section V operates on these fixed-point ring elements rather than on
// floating-point numbers directly.
//
// Encoding multiplies by 2^FracBits and rounds to the nearest integer,
// represented two's-complement in a uint64. Addition in uint64 then coincides
// with exact fixed-point addition as long as the true sum stays inside the
// representable range. A codec made with ForSummands(m) checks that up
// front: it encodes an element only if m values of its magnitude still sum
// inside the range.
package fixedpoint

import (
	"errors"
	"fmt"
	"math"
)

// Errors returned by the codec.
var (
	// ErrRange indicates a value (or vector element) too large in magnitude
	// to encode without wrapping.
	ErrRange = errors.New("fixedpoint: value out of encodable range")
	// ErrBadConfig indicates an unusable codec configuration.
	ErrBadConfig = errors.New("fixedpoint: bad configuration")
	// ErrNotFinite indicates a NaN or infinite input.
	ErrNotFinite = errors.New("fixedpoint: value is not finite")
)

// Codec converts between float64 and two's-complement fixed point with
// FracBits fractional bits.
type Codec struct {
	fracBits uint
	scale    float64
	summands int // EncodeVec bounds |x| by MaxAbs()/summands when > 1
}

// DefaultFracBits balances ≈ 9 decimal digits of fraction against ≈ 9·10^9
// of integer headroom, comfortable for SVM iterates and their sums across
// realistic learner counts.
const DefaultFracBits = 30

// New returns a codec with the given number of fractional bits (1–62).
func New(fracBits uint) (Codec, error) {
	if fracBits < 1 || fracBits > 62 {
		return Codec{}, fmt.Errorf("%w: fracBits = %d, want 1..62", ErrBadConfig, fracBits)
	}
	return Codec{fracBits: fracBits, scale: math.Ldexp(1, int(fracBits))}, nil
}

// Default returns the codec with DefaultFracBits.
func Default() Codec {
	c, err := New(DefaultFracBits)
	if err != nil {
		panic(err) // unreachable: DefaultFracBits is in range
	}
	return c
}

// Resolution returns the smallest representable increment, 2^−FracBits.
func (c Codec) Resolution() float64 { return 1 / c.scale }

// MaxAbs returns the largest magnitude encodable without wrapping.
func (c Codec) MaxAbs() float64 {
	return math.Ldexp(1, 63-int(c.fracBits)) - 1
}

// ForSummands returns c with EncodeVec bounded for a ring sum of m vectors:
// an element with |x| > MaxAbs()/m is an ErrRange, so a party that encodes
// its share this way cannot make an m-party sum wrap. m ≤ 1 is the
// per-value bound.
func (c Codec) ForSummands(m int) Codec {
	c.summands = m
	return c
}

// Encode converts v to a ring element.
func (c Codec) Encode(v float64) (uint64, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%w: %g", ErrNotFinite, v)
	}
	scaled := math.Round(v * c.scale)
	if scaled > math.MaxInt64 || scaled < math.MinInt64 || math.Abs(v) > c.MaxAbs() {
		return 0, fmt.Errorf("%w: |%g| > %g", ErrRange, v, c.MaxAbs())
	}
	return uint64(int64(scaled)), nil
}

// Decode converts a ring element back to float64, interpreting it as a
// two's-complement fixed-point value.
func (c Codec) Decode(u uint64) float64 {
	return float64(int64(u)) / c.scale
}

// EncodeVec encodes every element of v into dst, which is reused (resliced
// to len(v)) whenever its capacity suffices and allocated otherwise — pass
// the previous round's buffer back in to make steady-state encoding
// allocation-free. A non-nil dst with insufficient capacity is an error, so
// callers relying on writing through a fixed buffer fail loudly.
func (c Codec) EncodeVec(v []float64, dst []uint64) ([]uint64, error) {
	switch {
	case cap(dst) >= len(v):
		dst = dst[:len(v)]
	case dst == nil:
		dst = make([]uint64, len(v))
	default:
		return nil, fmt.Errorf("%w: dst capacity %d, want ≥ %d", ErrBadConfig, cap(dst), len(v))
	}
	// One comparison rejects NaN (every comparison with it is false), ±Inf and
	// out-of-range magnitudes; Encode then names the failure, or else the
	// element is inside MaxAbs but not inside the summand bound. Past it none
	// of Encode's checks can fire (|x| ≤ MaxAbs bounds the scaled value inside
	// int64 too), so the conversion below is Encode's, bit for bit.
	maxAbs := c.MaxAbs()
	if c.summands > 1 {
		maxAbs /= float64(c.summands)
	}
	for i, x := range v {
		if !(math.Abs(x) <= maxAbs) {
			if _, err := c.Encode(x); err != nil {
				return nil, fmt.Errorf("element %d: %w", i, err)
			}
			return nil, fmt.Errorf("element %d: %w: |%g| > %g, the bound for a sum of %d", i, ErrRange, x, maxAbs, c.summands)
		}
		dst[i] = uint64(int64(math.Round(x * c.scale)))
	}
	return dst, nil
}

// DecodeVec decodes every element of u into dst, with the same buffer-reuse
// contract as EncodeVec: reused when capacity suffices, allocated when nil,
// error otherwise.
func (c Codec) DecodeVec(u []uint64, dst []float64) ([]float64, error) {
	switch {
	case cap(dst) >= len(u):
		dst = dst[:len(u)]
	case dst == nil:
		dst = make([]float64, len(u))
	default:
		return nil, fmt.Errorf("%w: dst capacity %d, want ≥ %d", ErrBadConfig, cap(dst), len(u))
	}
	for i, x := range u {
		dst[i] = c.Decode(x)
	}
	return dst, nil
}

// AddVec accumulates src into acc element-wise in the ring (wrapping).
func AddVec(acc, src []uint64) error {
	if len(acc) != len(src) {
		return fmt.Errorf("%w: length %d vs %d", ErrBadConfig, len(acc), len(src))
	}
	for i, v := range src {
		acc[i] += v
	}
	return nil
}

// SubVec subtracts src from acc element-wise in the ring (wrapping).
func SubVec(acc, src []uint64) error {
	if len(acc) != len(src) {
		return fmt.Errorf("%w: length %d vs %d", ErrBadConfig, len(acc), len(src))
	}
	for i, v := range src {
		acc[i] -= v
	}
	return nil
}

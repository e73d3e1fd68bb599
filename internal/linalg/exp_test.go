package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// expBoundaries is every argument at which the algorithm changes regime,
// each with its two neighbours: zero of both signs, the smallest magnitudes,
// every multiple of ½ln 2 down past the cutoff (the odd ones are where n
// steps, the even ones where r changes sign), the cutoff, −Inf and NaN.
func expBoundaries() []float64 {
	xs := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, -0x1p-1022, -0x1p-54, -0x1p-53, -0x1p-52,
		math.Inf(-1), math.NaN(), -745.2, -1e300, -math.MaxFloat64,
	}
	around := func(x float64) {
		xs = append(xs, math.Nextafter(x, 0), x, math.Nextafter(x, math.Inf(-1)))
	}
	around(expCutoff)
	for n := 1; n <= 2100; n++ {
		around(-float64(n) * math.Ln2 / 2)
	}
	return xs
}

// expSample returns the boundaries followed by 2^20 seeded arguments whose
// magnitude is log-uniform over [2^-60, 708] and 2^20 uniform over
// [−708, 0].
func expSample() []float64 {
	xs := expBoundaries()
	rng := rand.New(rand.NewSource(23))
	lo, hi := math.Log(0x1p-60), math.Log(-expCutoff)
	for i := 0; i < 1<<20; i++ {
		xs = append(xs, -math.Exp(lo+(hi-lo)*rng.Float64()))
		xs = append(xs, expCutoff*rng.Float64())
	}
	return xs
}

// expViaRow puts every x through RBFRow as an exp argument: with γ = 1,
// sqX = 0, a zero dot and sq[j] = −x the row forms (0 + (−x)) − 0 = −x, which
// never clamps for x ≤ 0, and −1·(−x) = x, so the exp sees x exactly (both
// zeros arrive as −0), −Inf included. A NaN goes in as sq[j] = x: negating
// it would flip its sign bit, and the arithmetic after passes it through.
func expViaRow(xs []float64) []float64 {
	row, sq := make([]float64, len(xs)), expNorms(xs)
	RBFRow(row, 0, sq, 1)
	return row
}

// expNorms returns the sq that makes expViaRow's row form x.
func expNorms(xs []float64) []float64 {
	sq := make([]float64, len(xs))
	for j, x := range xs {
		sq[j] = -x
		if x != x {
			sq[j] = x
		}
	}
	return sq
}

// TestExpNonPosContract pins the exp the RBF transform rides on, as RBFRow
// runs it: at most 2 ulp from math.Exp on [cutoff, 0], exactly 1 at ±0,
// exactly 0 below the cutoff and at −Inf, NaN for NaN — and the lanes of
// every body of the row (the assembly bodies and the Go twin) agreeing with
// ExpNonPosScalar on every bit, so which of them computed a value never
// shows.
func TestExpNonPosContract(t *testing.T) {
	xs := expSample()
	got := expViaRow(xs)
	for _, b := range HostBodies() {
		restore := b.Use()
		row := expViaRow(xs)
		restore()
		for i, x := range xs {
			if s := ExpNonPosScalar(x); math.Float64bits(row[i]) != math.Float64bits(s) {
				t.Fatalf("exp(%g): %s row form %#x, scalar form %#x", x, b.Name, math.Float64bits(row[i]), math.Float64bits(s))
			}
		}
	}

	var worst uint64
	for i, x := range xs {
		g := got[i]
		switch {
		case math.IsNaN(x):
			if !math.IsNaN(g) {
				t.Fatalf("exp(NaN) = %g, want NaN", g)
			}
		case x < expCutoff:
			if g != 0 || math.Signbit(g) {
				t.Fatalf("exp(%g) = %g below the cutoff, want exactly +0", x, g)
			}
		case x == 0:
			if g != 1 {
				t.Fatalf("exp(%g) = %.17g, want exactly 1", x, g)
			}
		default:
			want := math.Exp(x)
			d := math.Float64bits(g) - math.Float64bits(want)
			if g < want {
				d = math.Float64bits(want) - math.Float64bits(g)
			}
			if d > 2 {
				t.Fatalf("exp(%.17g) = %.17g, math.Exp %.17g: %d ulp apart", x, g, want, d)
			}
			if g < 0x1p-1022 {
				t.Fatalf("exp(%.17g) = %g is not a normal double", x, g)
			}
			worst = max(worst, d)
		}
	}
	t.Logf("%d arguments, worst %d ulp from math.Exp, assembly=%v", len(xs), worst, hasFMA)
}

// TestExpNonPosLaneAndOffsetIndependent transforms a 67-element row whole
// and split at every cut point: which elements fall into a vector group and
// which into the scalar tail changes with the cut, the bits must not.
func TestExpNonPosLaneAndOffsetIndependent(t *testing.T) {
	xs := expBoundaries()[:67]
	rng := rand.New(rand.NewSource(29))
	for i := 40; i < len(xs); i++ {
		xs[i] = -20 * rng.Float64()
	}
	sq := expNorms(xs)
	whole := expViaRow(xs)
	for cut := 0; cut <= len(xs); cut++ {
		split := make([]float64, len(xs))
		RBFRow(split[:cut], 0, sq[:cut], 1)
		RBFRow(split[cut:], 0, sq[cut:], 1)
		for i := range whole {
			if math.Float64bits(split[i]) != math.Float64bits(whole[i]) {
				t.Fatalf("cut at %d: element %d (x=%g) = %#x, whole row %#x",
					cut, i, xs[i], math.Float64bits(split[i]), math.Float64bits(whole[i]))
			}
		}
	}
}

func TestExpNonPosDoesNotAllocate(t *testing.T) {
	row, sq := make([]float64, 67), make([]float64, 67)
	for i := range sq {
		sq[i] = float64(i)
	}
	if n := testing.AllocsPerRun(10, func() {
		clear(row)
		RBFRow(row, 0, sq, 1)
	}); n != 0 {
		t.Errorf("RBFRow: %.0f allocations per call, want 0", n)
	}
}

package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// twoPassRBFRow is the RBF row transform as two passes, kept as the
// reference RBFRow must reproduce: the scalar prologue that forms every
// −γ·max(‖x‖² + ‖y_j‖² − 2⟨x, y_j⟩, 0), verbatim, then the slice exp, whose
// assembly was bit-equal to ExpNonPosScalar at every length and offset.
func twoPassRBFRow(row []float64, sqX float64, sq []float64, gamma float64) {
	sq = sq[:len(row)]
	for j, d := range row {
		dd := sqX + sq[j] - 2*d
		if dd < 0 {
			dd = 0
		}
		row[j] = -gamma * dd
	}
	for i := range row {
		row[i] = ExpNonPosScalar(row[i])
	}
}

// sameRowBits reports the first element where got and want differ in their
// bits, or −1. Two NaNs count as equal: which payload an operation on two
// NaNs returns is the hardware's choice, not part of the contract.
func sameRowBits(got, want []float64) int {
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			return i
		}
	}
	return -1
}

// TestRBFRowMatchesTwoPass pins the fused row against the two passes it
// replaced: every body this host runs (the AVX-512 body, the AVX2 body, the Go
// twin) and twoPassRBFRow give the same bits at every length 0–70 (the scalar
// tail alone and behind vector groups, every residue after the groups of
// eight and of four) from four start offsets. The rows hold ordinary dots and
// norms, with NaN, ±0 and ±Inf planted in a dot, in a norm and in ‖x‖², with
// distances that cancel below zero and must clamp, dots of ±1e300 and
// subnormal ones, −γ·dd at the exp's cutoff −708 and just below it, and γ
// large enough that every argument falls below the cutoff. gramTiled's
// diagonal, row[0] = ‖x‖² = sq[0], is exactly 1 on every body.
func TestRBFRowMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n = 70
	base := make([]float64, n+3)
	norms := make([]float64, n+3)
	for i := range base {
		base[i] = 4 * rng.NormFloat64()
		norms[i] = 16 * rng.Float64()
	}
	type plant struct {
		name string
		at   func(row, sq []float64, sqX *float64, j int, gamma float64)
	}
	negZero := math.Copysign(0, -1)
	plants := []plant{
		{"none", func([]float64, []float64, *float64, int, float64) {}},
		{"NaN dot", func(row, _ []float64, _ *float64, j int, _ float64) { row[j] = math.NaN() }},
		{"+Inf dot", func(row, _ []float64, _ *float64, j int, _ float64) { row[j] = math.Inf(1) }},
		{"-Inf dot", func(row, _ []float64, _ *float64, j int, _ float64) { row[j] = math.Inf(-1) }},
		{"±0 dot", func(row, _ []float64, _ *float64, j int, _ float64) { row[j], row[j/2] = negZero, 0 }},
		{"NaN norm", func(_, sq []float64, _ *float64, j int, _ float64) { sq[j] = math.NaN() }},
		{"+Inf norm", func(_, sq []float64, _ *float64, j int, _ float64) { sq[j] = math.Inf(1) }},
		{"-Inf norm", func(_, sq []float64, _ *float64, j int, _ float64) { sq[j] = math.Inf(-1) }},
		{"±0 norm", func(_, sq []float64, _ *float64, j int, _ float64) { sq[j], sq[j/2] = negZero, 0 }},
		{"NaN sqX", func(_, _ []float64, sqX *float64, _ int, _ float64) { *sqX = math.NaN() }},
		{"+Inf sqX", func(_, _ []float64, sqX *float64, _ int, _ float64) { *sqX = math.Inf(1) }},
		{"-Inf sqX", func(_, _ []float64, sqX *float64, _ int, _ float64) { *sqX = math.Inf(-1) }},
		{"clamp", func(row, sq []float64, sqX *float64, j int, _ float64) {
			// (sqX + sq[j]) − 2d a little below zero, and one far below.
			row[j] = (*sqX+sq[j])/2 + 1e-12
			row[j/2] = 1e3
		}},
		{"-0", func(row, sq []float64, sqX *float64, j int, _ float64) {
			*sqX = negZero
			sq[j], row[j] = negZero, 0
		}},
		{"huge dot", func(row, _ []float64, _ *float64, j int, _ float64) { row[j] = -math.MaxFloat64 }},
		{"±1e300 dot", func(row, _ []float64, _ *float64, j int, _ float64) { row[j], row[j/2] = 1e300, -1e300 }},
		{"subnormal dot", func(row, _ []float64, _ *float64, j int, _ float64) { row[j], row[j/2] = 5e-324, -0x1p-1030 }},
		{"cutoff", func(row, sq []float64, sqX *float64, j int, gamma float64) {
			// dd = sq[j] with ‖x‖² = 0 and a zero dot: −γ·dd at −708 in
			// element j, just below it in element j/2 (unless they coincide).
			*sqX = 0
			row[j], row[j/2] = 0, 0
			sq[j], sq[j/2] = cutoffNorm(gamma)
		}},
	}
	bodies := HostBodies()
	for _, gamma := range []float64{1.0 / 16, 0.7, 1e4} {
		for _, p := range plants {
			for length := 0; length <= n; length++ {
				for off := 0; off < 4; off++ {
					name := fmt.Sprintf("γ=%g %s n=%d off=%d", gamma, p.name, length, off)
					row := make([]float64, off+length)[off:]
					sq := make([]float64, 3+length)[3-off:][:length]
					copy(row, base[off:])
					copy(sq, norms[3-off:])
					sqX := norms[n] + norms[n+1]
					if length > 0 {
						p.at(row, sq, &sqX, length*7/11, gamma)
					}
					ref := append([]float64(nil), row...)
					twoPassRBFRow(ref, sqX, sq, gamma)
					for _, b := range bodies {
						got := append([]float64(nil), row...)
						restore := b.Use()
						RBFRow(got, sqX, sq, gamma)
						restore()
						if i := sameRowBits(got, ref); i >= 0 {
							t.Fatalf("%s %s: element %d = %#x, two passes %#x", b.Name, name, i, math.Float64bits(got[i]), math.Float64bits(ref[i]))
						}
					}
					if gamma == 1e4 {
						// −γ·dd < −708 wherever dd > 0.0708: exactly +0.
						for i, v := range ref {
							if dd := sqX + sq[i] - 2*row[i]; dd > 0.0708 && (v != 0 || math.Signbit(v)) {
								t.Fatalf("%s: element %d = %g below the cutoff, want +0", name, i, v)
							}
						}
					}
				}
			}
		}
	}
	// The diagonal substitution of gramTiled: the dot is the norm itself.
	for _, b := range bodies {
		restore := b.Use()
		for _, s := range []float64{0, 1e-300, 0.37, 16, 1e300} {
			for length := 1; length <= 17; length++ {
				row := make([]float64, length)
				sq := make([]float64, length)
				for j := range row {
					row[j], sq[j] = s, s
				}
				RBFRow(row, s, sq, 0.7)
				for j, v := range row {
					if v != 1 {
						t.Fatalf("%s: diagonal ‖x‖² = %g, n=%d: element %d = %.17g, want exactly 1", b.Name, s, length, j, v)
					}
				}
			}
		}
		restore()
	}
}

// cutoffNorm returns the squared distance whose −γ·dd is exactly the exp's
// cutoff −708, or the nearest one above it where no product lands on it, and
// the next one whose −γ·dd is below the cutoff.
func cutoffNorm(gamma float64) (at, below float64) {
	at = -expCutoff / gamma
	for -gamma*at < expCutoff {
		at = math.Nextafter(at, 0)
	}
	for -gamma*math.Nextafter(at, math.Inf(1)) == expCutoff {
		at = math.Nextafter(at, math.Inf(1))
	}
	below = math.Nextafter(at, math.Inf(1))
	for -gamma*below >= expCutoff {
		below = math.Nextafter(below, math.Inf(1))
	}
	return at, below
}

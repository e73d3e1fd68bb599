//go:build !amd64

package linalg

// hasFMA is always false off amd64: the tile, the dot, the axpy, the fused
// box-QP step, the linear sweep and the RBF row use their Go twins, which
// give the same bits.
var hasFMA = false

// hasAVX512 is always false off amd64 too.
var hasAVX512 = false

var avx512Missing = "an amd64 CPU"

func tileFMA(a, out *[tileM][]float64, b []float64, k, panels int) {
	panic("linalg: tileFMA called without FMA support")
}

func dotFMA(x, y *float64, n int) float64 {
	panic("linalg: dotFMA called without FMA support")
}

func axpyFMA(alpha float64, x, y *float64, n int) {
	panic("linalg: axpyFMA called without FMA support")
}

func axpyMaxViolatorFMA(delta float64, x, grad, lambda *float64, n int, c, tol float64) int {
	panic("linalg: axpyMaxViolatorFMA called without FMA support")
}

func linearSweepFMA(st *SweepState, active *int, n int) int {
	panic("linalg: linearSweepFMA called without FMA support")
}

func rbfRowFMA(row, sq *float64, n int, sqX, negGamma float64, tab *[17][4]float64) {
	panic("linalg: rbfRowFMA called without FMA support")
}

func tileAVX512(a, out *[tileM][]float64, b []float64, k, panels int) {
	panic("linalg: tileAVX512 called without AVX-512 support")
}

func rbfRowAVX512(row, sq *float64, n int, sqX, negGamma float64, tab *[17]float64) {
	panic("linalg: rbfRowAVX512 called without AVX-512 support")
}

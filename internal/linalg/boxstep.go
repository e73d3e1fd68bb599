package linalg

import "math"

// BoxViolation is the magnitude of the projected gradient of a box
// constraint 0 ≤ l ≤ c (c > 0) at a coordinate with gradient g: 0 when g
// pushes l into the bound it sits on, |g| otherwise. A NaN g gives NaN, which
// no ordered comparison selects. It is the selection predicate of
// AxpyMaxViolator, written once for every scan that must agree with it.
func BoxViolation(g, l, c float64) float64 {
	if l <= 0 && g >= 0 || l >= c && g <= 0 {
		return 0
	}
	return math.Abs(g)
}

// AxpyMaxViolator is one Gauss–Southwell step of a box QP in one pass: it
// updates grad[j] = fma(delta, x[j], grad[j]), Axpy's bits, and returns the
// first index j of the largest BoxViolation(grad[j], lambda[j], c) above
// tol, or −1 when none is above it. The slices must have equal length; the
// shortest is honored.
//
// axpyMaxViolatorFMA runs it on AVX2 in four lanes, each keeping the first
// index of its maximum, and reduces the lanes with ties to the smaller index;
// axpyMaxViolatorGo is one sequential scan. Selection only compares, so both
// return the first maximum, on any host (TestAxpyMaxViolatorMatchesTwin).
func AxpyMaxViolator(delta float64, x, grad, lambda []float64, c, tol float64) int {
	n := min(len(x), len(grad), len(lambda))
	if hasFMA && n > 0 {
		return axpyMaxViolatorFMA(delta, &x[0], &grad[0], &lambda[0], n, c, tol)
	}
	return axpyMaxViolatorGo(delta, x[:n], grad[:n], lambda[:n], c, tol)
}

// axpyMaxViolatorGo is axpyMaxViolatorFMA's Go twin over len(x) elements,
// len(x) ≤ len(grad), len(lambda).
func axpyMaxViolatorGo(delta float64, x, grad, lambda []float64, c, tol float64) int {
	grad, lambda = grad[:len(x)], lambda[:len(x)]
	best, bestViol := -1, tol
	for j, v := range x {
		g := math.FMA(delta, v, grad[j])
		grad[j] = g
		if viol := BoxViolation(g, lambda[j], c); viol > bestViol {
			best, bestViol = j, viol
		}
	}
	return best
}

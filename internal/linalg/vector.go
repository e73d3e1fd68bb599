package linalg

import "math"

// Dot returns the inner product of x and y. The slices must have equal
// length; the shorter is honored to keep the hot path branch-free, so callers
// are expected to pass conforming vectors.
//
// It is the compute layer's one dot product: 16 lane sums of FMA chains over
// 16-element blocks, a 4-wide cleanup into lanes 0–3, the fold
// (Y0+Y1)+(Y2+Y3) then (l0+l2)+(l1+l3), and the tail as FMAs onto the sum.
// dotFMA runs that order on AVX2 and dotGo with math.FMA, so the bits depend
// on neither hasFMA nor the platform (TestTiledFallbackMatchesFMA).
func Dot(x, y []float64) float64 {
	n := min(len(x), len(y))
	if hasFMA && n > 0 {
		return dotFMA(&x[0], &y[0], n)
	}
	return dotGo(x[:n], y[:n])
}

// dotGo is dotFMA's Go twin over len(x) ≤ len(y) elements: aᵢ is lane i of
// the assembly's accumulator Y(i/4).
func dotGo(x, y []float64) float64 {
	n := len(x)
	y = y[:n]
	var a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15 float64
	i := 0
	for ; i+16 <= n; i += 16 {
		x, y := x[i:i+16], y[i:i+16]
		a0, a1, a2, a3 = math.FMA(x[0], y[0], a0), math.FMA(x[1], y[1], a1), math.FMA(x[2], y[2], a2), math.FMA(x[3], y[3], a3)
		a4, a5, a6, a7 = math.FMA(x[4], y[4], a4), math.FMA(x[5], y[5], a5), math.FMA(x[6], y[6], a6), math.FMA(x[7], y[7], a7)
		a8, a9, a10, a11 = math.FMA(x[8], y[8], a8), math.FMA(x[9], y[9], a9), math.FMA(x[10], y[10], a10), math.FMA(x[11], y[11], a11)
		a12, a13, a14, a15 = math.FMA(x[12], y[12], a12), math.FMA(x[13], y[13], a13), math.FMA(x[14], y[14], a14), math.FMA(x[15], y[15], a15)
	}
	for ; i+4 <= n; i += 4 {
		x, y := x[i:i+4], y[i:i+4]
		a0, a1, a2, a3 = math.FMA(x[0], y[0], a0), math.FMA(x[1], y[1], a1), math.FMA(x[2], y[2], a2), math.FMA(x[3], y[3], a3)
	}
	l0 := (a0 + a4) + (a8 + a12)
	l1 := (a1 + a5) + (a9 + a13)
	l2 := (a2 + a6) + (a10 + a14)
	l3 := (a3 + a7) + (a11 + a15)
	s := (l0 + l2) + (l1 + l3)
	for ; i < n; i++ {
		s = math.FMA(x[i], y[i], s)
	}
	return s
}

// Axpy computes y += alpha * x in place, each element one rounding:
// y[i] = fma(alpha, x[i], y[i]). The elements are independent, so axpyFMA's
// four lanes and the math.FMA loop give the same bits.
func Axpy(alpha float64, x, y []float64) {
	n := min(len(x), len(y))
	if hasFMA && n > 0 {
		axpyFMA(alpha, &x[0], &y[0], n)
		return
	}
	axpyGo(alpha, x[:n], y[:n])
}

// axpyGo is axpyFMA's Go twin over len(x) ≤ len(y) elements.
func axpyGo(alpha float64, x, y []float64) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] = math.FMA(alpha, v, y[i])
	}
}

// Scale multiplies x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// CopyVec copies src into a new slice.
func CopyVec(src []float64) []float64 {
	dst := make([]float64, len(src))
	copy(dst, src)
	return dst
}

// Zero sets every element of x to zero.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// AddVec computes dst = x + y, allocating dst when nil.
func AddVec(x, y, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(x))
	}
	for i := range x {
		dst[i] = x[i] + y[i]
	}
	return dst
}

// SubVec computes dst = x - y, allocating dst when nil.
func SubVec(x, y, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(x))
	}
	for i := range x {
		dst[i] = x[i] - y[i]
	}
	return dst
}

// Norm2 returns the Euclidean norm of x, guarding against overflow for large
// entries by scaling.
func Norm2(x []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + float64(ssq*r*r)
			scale = a
		} else {
			r := a / scale
			ssq += float64(r * r)
		}
	}
	return scale * math.Sqrt(ssq)
}

// Norm2Sq returns the squared Euclidean norm of x.
func Norm2Sq(x []float64) float64 { return Dot(x, x) }

// NormInf returns the maximum absolute entry of x (0 for empty x).
func NormInf(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Dist2Sq returns ‖x−y‖₂².
func Dist2Sq(x, y []float64) float64 {
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += float64(d * d)
	}
	return s
}

// Clamp returns v limited to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

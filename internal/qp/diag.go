package qp

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// SolveUniformDiagEqualityBox solves
//
//	minimize   ½ q0 ‖λ‖² + pᵀλ
//	subject to 0 ≤ λ ≤ C,  yᵀλ = 0,   y ∈ {−1,+1}ⁿ, q0 > 0
//
// exactly, with no tolerance, via the KKT structure:
// λᵢ(ν) = clip((−pᵢ − ν·yᵢ)/q0, 0, C) for the equality multiplier ν, and
// s(ν) = yᵀλ(ν) is non-increasing and affine between 2n breakpoints (a
// continuous quadratic knapsack). A pass over
// the n coordinates evaluates s at a point together with the affine form of
// the segments on either side of it, so the segment holding the root yields ν
// in closed form. The search starts at ν = 0 and takes Newton steps
// (Cominetti, Mascarenhas and Silva, 2014) while a miss would leave room for
// median-of-breakpoints steps (Kiwiel, 2008) within the pass bound, and median
// steps after. Result.Iterations counts its passes over the n coordinates,
// the one that gathers the breakpoints for the first median included and the
// final write of λ not: at most 2⌈log₂(2n)⌉ + 4 on any input.
//
// This is the Reducer's sub-problem in the vertically partitioned schemes
// (Section IV-C): its Hessian is (M/ρ)·I, so the generic SMO solver would
// waste O(n²) memory on an identity matrix.
func SolveUniformDiagEqualityBox(q0 float64, p []float64, c float64, y []float64, opts ...Option) (*Result, error) {
	n := len(p)
	if !(q0 > 0) || math.IsInf(q0, 1) {
		return nil, fmt.Errorf("%w: q0 = %g, want finite > 0", ErrBadProblem, q0)
	}
	if !(c > 0) || math.IsInf(c, 1) {
		return nil, fmt.Errorf("%w: C = %g, want finite > 0", ErrBadProblem, c)
	}
	if len(y) != n {
		return nil, fmt.Errorf("%w: y has length %d, want %d", ErrBadProblem, len(y), n)
	}
	for i, v := range y {
		if v*v != 1 { // v = ±1 exactly; one test, where v != 1 would mispredict on random labels
			return nil, fmt.Errorf("%w: y[%d] = %g, want ±1", ErrBadProblem, i, v)
		}
		if math.IsNaN(p[i]) || math.IsInf(p[i], 0) {
			return nil, fmt.Errorf("%w: p[%d] is not finite", ErrBadProblem, i)
		}
	}
	cfg := newConfig(opts, 0)
	if err := cfg.check(); err != nil {
		return nil, err
	}

	nu, passes := diagRoot(&cfg, q0, p, c, y)
	lambda, res := cfg.takeLambda(n)
	diagLambdaAt(nu, q0, c, p, y, lambda)
	res.Lambda = lambda
	res.Iterations = passes
	res.Converged = true
	cfg.record("diag", res)
	return res, nil
}

// diagRoot returns the ν with s(ν) = 0 and the number of passes over p it
// took, starting cold from ν = 0. The root lies strictly inside (nuL, nuR),
// the closest points evaluated so far with s > 0 and s < 0.
func diagRoot(cfg *config, q0 float64, p []float64, c float64, y []float64) (nu float64, passes int) {
	w := q0 * c
	bound := diagPassBound(len(p))
	nuL, nuR := math.Inf(-1), math.Inf(1)
	// brk[bLo:bHi] holds, sorted, the breakpoints strictly inside the bracket
	// once the first median step has gathered them.
	var brk []float64
	bLo, bHi := 0, 0
	for {
		passes++
		at := diagPassAt(nu, w, p, y)
		// side is the affine form of s between ν and end, the nearest
		// breakpoint or bracket end on the root's side.
		var side diagForm
		var end float64
		switch rf, lf := at.right(), at.left(); {
		case rf.value(nu, q0, c) > 0:
			side, end, nuL = rf, math.Min(at.r, nuR), nu
		case lf.value(nu, q0, c) < 0:
			side, end, nuR = lf, math.Max(at.l, nuL), nu
		default:
			return nu, passes // s(ν⁺) ≤ 0 ≤ s(ν⁻)
		}
		// whole: no breakpoint lies between ν and the bracket's far end, so
		// the root is on this segment even when rounding puts the segment's
		// closed-form root a hair past end.
		whole := end == nuL || end == nuR
		step, ok := side.root(q0, c)
		switch {
		case ok && (whole || (step-nu)*(step-end) <= 0): // step within [ν, end]
			return min(max(step, min(nu, end)), max(nu, end)), passes
		case whole:
			// A flat segment spans the bracket, so s jumps across 0 at end: a
			// coordinate whose width q0·C is below the rounding of its
			// breakpoint. end is finite: past the last breakpoint s ≤ 0, and
			// before the first s ≥ 0.
			return end, passes
		}
		// reserve is the passes median steps alone would still need: each
		// leaves at most half the breakpoints in the bracket, and the pass that
		// leaves none finishes. Before the gather, all 2n may be left.
		reserve := 1 + bits.Len(uint(2*len(p)))
		if brk != nil {
			bLo, bHi = narrow(brk, bLo, bHi, nuL, nuR)
			reserve = bits.Len(uint(bHi - bLo))
		}
		// The Newton step, while a miss would still leave room for the median
		// steps within the bound. On a staircase it crosses one breakpoint a
		// pass, and the budget runs out; near a smooth stretch of s it lands
		// on the root's segment in a pass or two.
		if ok && step > nuL && step < nuR && passes+1+reserve <= bound {
			nu = step
			continue
		}
		if brk == nil {
			passes++
			brk = gatherBreakpoints(cfg.takeBuf(2 * len(p))[:0], w, p, y, nuL, nuR)
			slices.Sort(brk)
			bLo, bHi = 0, len(brk)
		}
		nu = brk[(bLo+bHi)/2]
	}
}

// diagPassBound is the most passes a solve over n coordinates takes,
// 2⌈log₂(2n)⌉ + 4: the start, one gather, the median steps over at most 2n
// breakpoints, and as many Newton steps as that leaves room for.
func diagPassBound(n int) int { return 2*bits.Len(uint(max(2*n-1, 0))) + 4 }

// diagBreaks returns coordinate i's offset tᵢ = −yᵢ·pᵢ and the ends of the
// interval [a, b] (width w = q0·C) on which it is free: yᵢλᵢ(ν) is (tᵢ − ν)/q0
// inside it, yᵢ·C left of it when yᵢ = +1 and right of it when yᵢ = −1, and 0
// otherwise. The pass and the gather share it so both see the same breakpoints.
// It is arithmetic in yᵢ rather than a branch on it, which random labels
// would mispredict half the time (twice the cost of a pass).
func diagBreaks(pi, yi, w float64) (t, a, b float64) {
	t = float64(-yi * pi)
	a = t - float64(w*(0.5+float64(0.5*yi))) // t − w when yᵢ = +1, t when yᵢ = −1
	return t, a, a + w
}

// diagForm is s(ν) on one segment: clamped·C + (sumT − free·ν)/q0, where
// clamped is the clamped coordinates' Σ yᵢλᵢ in units of C and free counts
// the free coordinates, whose offsets tᵢ sum to sumT.
type diagForm struct {
	clamped, free int
	sumT          float64
}

func (f diagForm) value(nu, q0, c float64) float64 {
	return float64(float64(f.clamped)*c) + (f.sumT-float64(float64(f.free)*nu))/q0
}

// root solves value(ν) = 0; ok is false on a flat segment.
func (f diagForm) root(q0, c float64) (float64, bool) {
	if f.free == 0 {
		return 0, false
	}
	return (f.sumT + float64(q0*float64(float64(f.clamped)*c))) / float64(f.free), true
}

// diagPass is one pass over the coordinates at ν: the coordinates strictly
// clamped or free there (base), those with a breakpoint exactly at ν (which
// are free on one side of it and clamped on the other), and the nearest
// breakpoints l < ν < r.
type diagPass struct {
	base         diagForm
	tieA, tieB   diagForm // free right of ν (ν = a < b) / left of ν (a < b = ν); clamped counts unused
	hiTie, loTie int      // yᵢ·λᵢ/C of the ties at a left of ν / at b right of ν
	l, r         float64
}

// diagPassAt is one pass at ν. The common cases accumulate in locals; the
// struct is touched only by ties.
func diagPassAt(nu, w float64, p, y []float64) diagPass {
	at := diagPass{l: math.Inf(-1), r: math.Inf(1)}
	l, r := at.l, at.r
	clamped, free, sumT := 0, 0, 0.0
	for i, pi := range p {
		t, a, b := diagBreaks(pi, y[i], w)
		switch {
		case nu < a:
			if y[i] > 0 {
				clamped++
			}
			r = min(r, a)
		case nu > b:
			if y[i] < 0 {
				clamped--
			}
			l = max(l, b)
		case nu != a && nu != b:
			free++
			sumT += t
			l, r = max(l, a), min(r, b)
		default:
			at.tie(nu, y[i], t, a, b)
		}
	}
	at.base = diagForm{clamped, free, sumT}
	at.l, at.r = max(at.l, l), min(at.r, r)
	return at
}

// tie records a coordinate with a breakpoint exactly at ν. When a == b (w
// below the rounding of t) the coordinate is a step, clamped on both sides of
// ν and free on neither. Ties occur at median steps only; inlined into
// diagPassAt's loop, this body doubles the cost of every pass.
//
//go:noinline
func (at *diagPass) tie(nu, yi, t, a, b float64) {
	if nu == a {
		if yi > 0 {
			at.hiTie++
		}
		if a < b {
			at.tieA.free++
			at.tieA.sumT += t
			at.r = min(at.r, b)
		}
	}
	if nu == b {
		if yi < 0 {
			at.loTie--
		}
		if a < b {
			at.tieB.free++
			at.tieB.sumT += t
			at.l = max(at.l, a)
		}
	}
}

// right and left are the affine forms of s on [ν, r] and [l, ν].
func (at *diagPass) right() diagForm {
	return diagForm{at.base.clamped + at.loTie, at.base.free + at.tieA.free, at.base.sumT + at.tieA.sumT}
}

func (at *diagPass) left() diagForm {
	return diagForm{at.base.clamped + at.hiTie, at.base.free + at.tieB.free, at.base.sumT + at.tieB.sumT}
}

// gatherBreakpoints appends to dst every breakpoint strictly inside (lo, hi).
func gatherBreakpoints(dst []float64, w float64, p, y []float64, lo, hi float64) []float64 {
	for i, pi := range p {
		_, a, b := diagBreaks(pi, y[i], w)
		if a > lo && a < hi {
			dst = append(dst, a)
		}
		if b > lo && b < hi && b != a {
			dst = append(dst, b)
		}
	}
	return dst
}

// narrow shrinks the sorted brk[i:j] to the values strictly inside (lo, hi).
func narrow(brk []float64, i, j int, lo, hi float64) (int, int) {
	for i < j && brk[i] <= lo {
		i++
	}
	for j > i && brk[j-1] >= hi {
		j--
	}
	return i, j
}

// diagLambdaAt evaluates λ(ν) = clip((−p − ν·y)/q0, 0, C) into dst. The
// builtin min and max compile without branches, which a random mix of clamped
// and free coordinates would mispredict.
func diagLambdaAt(nu, q0, c float64, p, y, dst []float64) {
	for i := range dst {
		dst[i] = min(max((-p[i]-float64(nu*y[i]))/q0, 0), c)
	}
}

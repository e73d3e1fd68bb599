package linalg

import "math"

// SweepState is the state one LinearSweep reads and updates: a linear-SVM
// dual (qp.SolveLinearBox's box QP, Q = Y(η·XXᵀ + σ·11ᵀ)Y) held by its
// factors, v = Xᵀ(y∘λ) and s = yᵀλ, so coordinate i's gradient is
// y_i(η·x_iᵀv + σ·s) + p_i.
//
// The caller sets every field above S once per solve, S and Iter as they
// stand, and the shrink thresholds before each sweep. A sweep updates Lambda,
// V, S and Iter and sets Viol, PGMax and PGMin. The assembly reads the fields
// at their go_asm.h offsets, so the struct's layout is its contract.
type SweepState struct {
	X      []float64 // n rows of K features, row-major
	Y      []float64 // n labels, each −1 or +1
	P      []float64 // n linear terms
	QD     []float64 // diag(Q): η‖x_i‖² + σ
	Lambda []float64 // n duals, updated
	V      []float64 // Xᵀ(y∘λ), length K, updated
	K      int

	Eta, Sigma, C float64
	Tau           float64 // the curvature floor: QD[i] ≤ Tau steps to a face
	Tol           float64 // a projected gradient within Tol is not moved
	MaxIter       int     // no update once Iter reaches it

	// A coordinate at 0 with gradient above ShrinkAbove, or at C with
	// gradient below ShrinkBelow, is dropped from active.
	ShrinkAbove, ShrinkBelow float64

	S    float64 // yᵀλ, updated
	Iter int     // updates so far, updated

	// The sweep's largest |projected gradient| and its extreme projected
	// gradients over the coordinates it kept.
	Viol, PGMax, PGMin float64
}

// LinearSweep runs one sweep of dual coordinate descent (Hsieh et al., ICML
// 2008) over the coordinates in active, in order. A coordinate the shrink
// thresholds drop is skipped; the others are compacted to the front of
// active, in order, and their count is returned as kept. A kept coordinate
// whose projected gradient exceeds Tol, while Iter < MaxIter, moves to the
// minimizer along it, clamped to [0, C]: λ_i − g/QD[i] when QD[i] > Tau,
// else the face its gradient points at. moved reports whether any did.
//
// Every index in active must be below n = len(Y), and X, P, QD and Lambda
// must hold n rows; the assembly does not check.
//
// linearSweepFMA runs the sweep on AVX2 and linearSweepGo in Go. They do the
// same operations in the same order: the dot is Dot's, the update of v is
// Axpy's, every other product and sum is rounded on its own, and every
// compare is ordered, so λ, v, s, active and the outputs are the same bits
// on any host (TestLinearSweepMatchesTwin).
func LinearSweep(st *SweepState, active []int) (kept int, moved bool) {
	iter := st.Iter
	st.Viol, st.PGMax, st.PGMin = 0, math.Inf(-1), math.Inf(1)
	if hasFMA && len(active) > 0 {
		kept = linearSweepFMA(st, &active[0], len(active))
	} else {
		kept = linearSweepGo(st, active)
	}
	return kept, st.Iter != iter
}

// linearSweepGo is linearSweepFMA's Go twin. Each product is rounded by an
// explicit conversion, so no compiler fuses it into a multiply-add.
func linearSweepGo(st *SweepState, active []int) int {
	k, lambda, v, c := st.K, st.Lambda, st.V, st.C
	kept := 0
	for _, i := range active {
		row := st.X[i*k : i*k+k]
		g := float64(st.Y[i]*(float64(st.Eta*dotGo(row, v))+float64(st.Sigma*st.S))) + st.P[i]
		pg := g
		switch {
		case lambda[i] <= 0:
			if g > st.ShrinkAbove {
				continue
			}
			if g > 0 {
				pg = 0
			}
		case lambda[i] >= c:
			if g < st.ShrinkBelow {
				continue
			}
			if g < 0 {
				pg = 0
			}
		}
		active[kept] = i
		kept++
		if pg > st.PGMax {
			st.PGMax = pg
		}
		if pg < st.PGMin {
			st.PGMin = pg
		}
		if a := math.Abs(pg); a > st.Viol {
			st.Viol = a
		}
		// At the cap the sweeps go on without moving, so a solve still ends
		// on a full sweep that measured the point it returns.
		if math.Abs(pg) <= st.Tol || st.Iter >= st.MaxIter {
			continue
		}
		var target float64
		switch {
		case st.QD[i] > st.Tau:
			target = Clamp(lambda[i]-g/st.QD[i], 0, c)
		case g > 0:
			target = 0
		default:
			target = c
		}
		delta := target - lambda[i]
		if delta == 0 {
			continue // the step rounds to nothing; Viol reports it
		}
		lambda[i] = target
		alpha := float64(delta * st.Y[i])
		axpyGo(alpha, row, v)
		st.S += alpha
		st.Iter++
	}
	return kept
}

package consensus

import (
	"math"
	"testing"
)

// TestRoundTolerance pins the inexact rule ε = clamp(min(0.1·d, 10·d²),
// qpTol, 1e-2) at its pieces: the floor, the quadratic arm, the kink at
// d = 0.01 where the two arms meet, the linear arm and the cap, and qpTol for
// a d that is not finite.
func TestRoundTolerance(t *testing.T) {
	for _, tc := range []struct{ d, want float64 }{
		{0, qpTol},
		{1e-4, qpTol},            // 10·d² = 1e-7, under the floor
		{math.Sqrt(1e-7), qpTol}, // 10·d² = 1e-6: the floor itself
		{1e-3, 1e-5},             // 10·d² < 0.1·d
		{0.01, 1e-3},             // the kink: 0.1·d = 10·d²
		{0.02, 2e-3},             // 0.1·d < 10·d²
		{0.1, tolCap},            // 0.1·d reaches the cap
		{5, tolCap},              // and stays there
		{math.NaN(), qpTol},      // not finite
		{math.Inf(1), qpTol},
		{math.Nextafter(0.01, 0), 1e-3}, // continuous at the kink
	} {
		if got := roundTolerance(tc.d); math.Abs(got-tc.want) > 1e-12*tc.want {
			t.Errorf("roundTolerance(%g) = %g, want %g", tc.d, got, tc.want)
		}
	}
}

// TestLocalSolveTolerance: a mapper's first round has no earlier broadcast
// and takes qpTol; every later one takes the rule at the distance from the
// previous broadcast over the whole state, which the solve keeps its own copy
// of (the engines reuse the state buffer).
func TestLocalSolveTolerance(t *testing.T) {
	var s localSolve
	s.init(3, nil)
	state := []float64{1, 2, 3}
	if got := s.tolerance(state); got != qpTol {
		t.Errorf("first round: tolerance %g, want qpTol", got)
	}
	state[0], state[2] = 1.006, 3.008 // d = 0.01, spread over w and b
	if got, want := s.tolerance(state), roundTolerance(0.01); math.Abs(got-want) > 1e-12 {
		t.Errorf("second round: tolerance %g, want %g", got, want)
	}
	if got := s.tolerance(state); got != qpTol {
		t.Errorf("a repeated broadcast: tolerance %g, want qpTol", got)
	}
	state[1] = math.NaN()
	if got := s.tolerance(state); got != qpTol {
		t.Errorf("a NaN broadcast: tolerance %g, want qpTol", got)
	}
}

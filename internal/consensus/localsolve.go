package consensus

import (
	"math"

	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/qp"
	"github.com/ppml-go/ppml/internal/telemetry"
)

// The inexact-ADMM rule of the horizontal local solves (DESIGN.md §17): a
// round's dual is solved to ε = clamp(min(tolSlope·d, tolCurve·d²), qpTol,
// tolCap), d = ‖z_t − z_{t−1}‖₂ the distance the consensus moved into this
// round. Far from the fixed point the consensus cannot use a tight solve;
// near it, below d ≈ 3.2e-4, every solve is held to qpTol as before. The
// excess over qpTol is at most tolCurve·d², and Σ d² is finite, so the
// errors are summable (Boyd et al. §3.4.4, after Eckstein and Bertsekas).
const (
	tolSlope = 0.1
	tolCurve = 10
	tolCap   = 1e-2
)

// roundTolerance is the rule's ε for a consensus that moved d. A d that is
// not finite gives qpTol.
func roundTolerance(d float64) float64 {
	if math.IsNaN(d) || math.IsInf(d, 0) {
		return qpTol
	}
	return linalg.Clamp(min(tolSlope*d, tolCurve*d*d), qpTol, tolCap)
}

// localSolve is what a horizontal mapper carries from one local dual solve to
// the next: the solver's buffers, the options every solve is called with, and
// the previous broadcast, which sets the next solve's tolerance. z is public,
// so the rule needs no new secret and nothing on the wire.
type localSolve struct {
	scratch qp.Scratch
	opts    [4]qp.Option // tolerance, telemetry, scratch, warm start
	last    []float64    // the previous broadcast
	seen    bool         // last holds one
}

// init readies s for broadcasts of dim values. It works on s in place: the
// options point at s.scratch.
func (s *localSolve) init(dim int, tel *telemetry.Registry) {
	s.last = make([]float64, dim)
	// The first and the last option are set by every options call.
	s.opts[1], s.opts[2] = qp.WithTelemetry(tel), qp.WithScratch(&s.scratch)
}

// tolerance returns the tolerance of the solve against broadcast state and
// keeps a copy of state as the previous broadcast. A mapper's first round has
// none, and takes qpTol.
func (s *localSolve) tolerance(state []float64) float64 {
	tol := qpTol
	if s.seen {
		tol = roundTolerance(math.Sqrt(linalg.Dist2Sq(state, s.last)))
	}
	copy(s.last, state)
	s.seen = true
	return tol
}

// options returns the solve options of the round against broadcast state,
// warm started from warm. They are valid until the next call.
func (s *localSolve) options(state, warm []float64) []qp.Option {
	s.opts[0] = qp.WithTolerance(s.tolerance(state))
	s.opts[3] = qp.WithWarmStart(warm)
	return s.opts[:]
}

// The per-round accuracy probe behind Fig. 4(e)–(h). With Config.EvalSet set,
// every mapper of a kernel or vertical scheme scores the eval rows on its own
// block at the end of Contribution and hands the Reducer those partial
// decisions; the Reducer adds them up with the public terms it holds and
// counts the signs. It never builds a model, and it reads no learner's rows
// or coefficients. HL scores the consensus state, which the Reducer holds
// anyway. See DESIGN.md §12, "What the probe reads".
package consensus

import (
	"fmt"
	"sync"

	"github.com/ppml-go/ppml/internal/eval"
	"github.com/ppml-go/ppml/internal/linalg"
)

// partialDecisions is one learner's share of the probe: f_m(X_e), its
// partial decision on every eval row. The Reducer reads it inside Combine,
// while the mapper may be inside Contribution — a demoted straggler still
// solving — so the mapper writes a
// round's decisions into next, which only it touches, and swaps them in under
// the mutex at the end of Contribution; the Reducer adds v into its sum under
// the same mutex. Under the local engine and strict rounds every Contribution
// of round t has returned before Combine(t) runs, so the probe scores exactly
// the iterate that was folded; under elastic rounds a demoted learner's part
// may be newer than the last share the Reducer folded from it. ROADMAP item 3 (the partials in
// the masked share) supersedes this.
type partialDecisions struct {
	next []float64 // the mapper's: the decisions of the round in progress

	mu sync.Mutex
	v  []float64 // the last completed Contribution's decisions
}

// newPartials returns a learner's partial decisions on the eval set, or nil
// when there is none.
func newPartials(cfg Config) *partialDecisions {
	if cfg.EvalSet == nil {
		return nil
	}
	e := cfg.EvalSet.Len()
	return &partialDecisions{next: make([]float64, e), v: make([]float64, e)}
}

// swap makes next the decisions the Reducer reads; next is then the old
// ones, for the mapper to overwrite.
func (p *partialDecisions) swap() {
	p.mu.Lock()
	p.next, p.v = p.v, p.next
	p.mu.Unlock()
}

// addTo adds the learner's partial decisions into s.
func (p *partialDecisions) addTo(s []float64) {
	p.mu.Lock()
	linalg.Axpy(1, p.v, s)
	p.mu.Unlock()
}

// sumPartials sets s = base + Σ_m p_m, adding the learners' partial decisions
// in learner order.
func sumPartials(parts []*partialDecisions, base float64, s []float64) {
	for i := range s {
		s[i] = base
	}
	for _, p := range parts {
		p.addTo(s)
	}
}

// verticalAccuracy is the vertical schemes' probe: s = b + Σ_m p_m with p_m
// learner m's score of its column block of the eval rows, scored against the
// eval labels y. Axpy adds with fma(1, p, s) = p + s, so for VK this is the
// sum KernelVerticalModel.Decisions forms, bit for bit.
func verticalAccuracy(parts []*partialDecisions, b float64, y, s []float64) (float64, error) {
	sumPartials(parts, b, s)
	return eval.Accuracy(s, y)
}

// landmarkAccuracy is the horizontal kernel scheme's probe over M learners:
//
//	s = (Σ_m p_m + K_eg·(M·ρM′(I − ρM′·K⁻¹_g·K_gg)·z)) / M
//
// p_m being learner m's decisions without the part of its landmark
// coefficients that only z moves (see hkMapper.score); that part is the
// same for every learner, so it is added once, for all M. It is scored
// against the eval labels y; g is 3l scratch.
func (lm *landmarks) landmarkAccuracy(parts []*partialDecisions, z []float64, rho float64, y, s, g []float64) (float64, error) {
	l := lm.xg.Rows
	coef := g[:l]
	if err := lm.coefficients(nil, nil, z, rho, coef, g[l:]); err != nil {
		return 0, err
	}
	sumPartials(parts, 0, s)
	mf := float64(len(parts))
	for j, c := range coef {
		linalg.Axpy(mf*c, lm.evalG.Row(j), s)
	}
	inv := 1 / mf
	for i := range s {
		s[i] *= inv
	}
	return eval.Accuracy(s, y)
}

// checkEvalSet rejects an eval set the probe cannot score: an empty one, or
// one whose rows are not as wide as the training rows (features columns).
func checkEvalSet(cfg Config, features int) error {
	switch e := cfg.EvalSet; {
	case e == nil:
		return nil
	case e.Len() == 0:
		return fmt.Errorf("%w: EvalSet has no rows", ErrBadConfig)
	case e.Features() != features:
		return fmt.Errorf("%w: EvalSet has %d features, the training rows %d", ErrBadConfig, e.Features(), features)
	}
	return nil
}

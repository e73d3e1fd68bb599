package qp

import (
	"fmt"
	"math"

	"github.com/ppml-go/ppml/internal/linalg"
)

// linearSweeps sizes SolveLinearBox's default update cap: as many updates as
// this many sweeps moving every row. An update is O(k), not SolveBox's O(n),
// and cyclic order needs more of them than the greedy rule: at C = 50 on
// Higgs rows the hardest solves take 2,100 updates a row (a cold 100-row
// chunk) to 4,000 (n = 978), which SolveBox's 1000·n + 10000 would cut short.
const linearSweeps = 100000

// LinearProblem is the box QP
//
//	minimize ½ λᵀQλ + pᵀλ  subject to 0 ≤ λ ≤ C,  Q = Y(η·XXᵀ + σ·11ᵀ)Y
//
// with Y = diag(y): the dual of a linear SVM over the rows of X, η weighting
// the margin term and σ the bias. Q is given by its factors and never formed.
type LinearProblem struct {
	X     *linalg.Matrix // n rows of k features
	Y     []float64      // n labels, each −1 or +1
	Eta   float64        // η ≥ 0
	Sigma float64        // σ ≥ 0
	P     []float64      // length n
	C     float64        // box upper bound, > 0
}

func (p *LinearProblem) validate() error {
	switch {
	case p.X == nil:
		return fmt.Errorf("%w: nil X", ErrBadProblem)
	case len(p.Y) != p.X.Rows:
		return fmt.Errorf("%w: Y has length %d, want %d", ErrBadProblem, len(p.Y), p.X.Rows)
	case len(p.P) != p.X.Rows:
		return fmt.Errorf("%w: P has length %d, want %d", ErrBadProblem, len(p.P), p.X.Rows)
	case !(p.C > 0):
		return fmt.Errorf("%w: C = %g, want > 0", ErrBadProblem, p.C)
	case !(p.Eta >= 0) || !(p.Sigma >= 0):
		return fmt.Errorf("%w: η = %g, σ = %g, want ≥ 0", ErrBadProblem, p.Eta, p.Sigma)
	}
	for i, v := range p.Y {
		if v != 1 && v != -1 {
			// The value is a training label: name the row, not the datum.
			return fmt.Errorf("%w: Y[%d] is not ±1", ErrBadProblem, i)
		}
	}
	return nil
}

// SolveLinearBox minimizes a LinearProblem by dual coordinate descent (Hsieh
// et al., ICML 2008). It keeps v = Xᵀ(y∘λ) and s = yᵀλ, so coordinate i's
// gradient is y_i(η·x_iᵀv + σ·s) + p_i and an update touches row i alone:
// O(k) time, O(n + k) memory, no n × n Hessian. Rows are swept in index
// order; a coordinate sitting at a bound with its gradient pointing outward
// by more than the last sweep's largest violation is shrunk out of the
// sweeps until the remaining ones are within tolerance.
//
// A coordinate whose projected gradient is within tolerance is not moved,
// and the solve ends on a sweep over all n rows that moved nothing, so
// KKTViolation — the largest projected gradient that sweep saw — holds at
// the returned point, in SolveBox's units. Iterations counts updates.
func SolveLinearBox(p LinearProblem, opts ...Option) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	n, k := p.X.Rows, p.X.Cols
	cfg := newConfig(opts, linearSweeps*n)

	lambda, res := cfg.takeLambda(n)
	v := cfg.takeBuf(k)
	linalg.Zero(v)
	s := 0.0
	if cfg.warmStart != nil {
		if len(cfg.warmStart) != n {
			return nil, fmt.Errorf("%w: warm start has length %d, want %d", ErrBadProblem, len(cfg.warmStart), n)
		}
		for i, w := range cfg.warmStart {
			if lambda[i] = linalg.Clamp(w, 0, p.C); lambda[i] != 0 {
				linalg.Axpy(p.Y[i]*lambda[i], p.X.Row(i), v)
				s += p.Y[i] * lambda[i]
			}
		}
	}
	// qd is diag(Q): η‖x_i‖² + σ.
	qd := cfg.takeGrad(n)
	active := cfg.takeIdx(n)
	for i := range qd {
		row := p.X.Row(i)
		qd[i] = p.Eta*linalg.Dot(row, row) + p.Sigma
		active[i] = i
	}

	res.Lambda = lambda
	live := n
	// The last sweep's extreme projected gradients: the shrinking thresholds.
	shrinkAbove, shrinkBelow := math.Inf(1), math.Inf(-1)
	for {
		full := live == n
		moved := false
		viol := 0.0
		pgMax, pgMin := math.Inf(-1), math.Inf(1)
		kept := 0
		for _, i := range active[:live] {
			row := p.X.Row(i)
			g := p.Y[i]*(p.Eta*linalg.Dot(row, v)+p.Sigma*s) + p.P[i]
			pg := g
			switch {
			case lambda[i] <= 0:
				if g > shrinkAbove {
					continue
				}
				if g > 0 {
					pg = 0
				}
			case lambda[i] >= p.C:
				if g < shrinkBelow {
					continue
				}
				if g < 0 {
					pg = 0
				}
			}
			active[kept] = i
			kept++
			if pg > pgMax {
				pgMax = pg
			}
			if pg < pgMin {
				pgMin = pg
			}
			if a := math.Abs(pg); a > viol {
				viol = a
			}
			// At the cap the sweeps go on without moving, so the solve still
			// ends on a full sweep that measured the point it returns.
			if math.Abs(pg) <= cfg.tol || res.Iterations >= cfg.maxIter {
				continue
			}
			var target float64
			switch {
			case qd[i] > tau:
				target = linalg.Clamp(lambda[i]-g/qd[i], 0, p.C)
			case g > 0:
				target = 0
			default:
				target = p.C
			}
			delta := target - lambda[i]
			if delta == 0 {
				continue // the step rounds to nothing; viol reports it
			}
			lambda[i] = target
			linalg.Axpy(delta*p.Y[i], row, v)
			s += delta * p.Y[i]
			res.Iterations++
			moved = true
		}
		live = kept
		if !moved {
			if full {
				res.KKTViolation = viol
				break
			}
			// The shrunk problem is solved; sweep every row again.
			for i := range active {
				active[i] = i
			}
			live = n
			shrinkAbove, shrinkBelow = math.Inf(1), math.Inf(-1)
			continue
		}
		shrinkAbove, shrinkBelow = pgMax, pgMin
		if shrinkAbove <= 0 {
			shrinkAbove = math.Inf(1)
		}
		if shrinkBelow >= 0 {
			shrinkBelow = math.Inf(-1)
		}
	}
	res.Converged = res.KKTViolation <= cfg.tol
	cfg.record("linear", res)
	return res, nil
}

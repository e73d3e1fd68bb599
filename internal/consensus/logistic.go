package consensus

import (
	"context"
	"fmt"
	"math"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/eval"
	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/mapreduce"
)

// LogisticModel is a consensus-trained logistic regression classifier.
// Decision returns the log-odds wᵀx + b.
type LogisticModel struct {
	W []float64
	B float64
}

// Decision returns the log-odds of the positive class.
func (m *LogisticModel) Decision(x []float64) float64 { return linalg.Dot(m.W, x) + m.B }

// Predict returns the class label, +1 or −1.
func (m *LogisticModel) Predict(x []float64) float64 {
	if m.Decision(x) >= 0 {
		return 1
	}
	return -1
}

// TrainHorizontalLogistic trains L2-regularized logistic regression over
// horizontally partitioned private data with the same consensus machinery as
// the SVM schemes: per iteration each learner solves its local
//
//	min 1/(2M)‖w‖² + C·Σᵢ log(1+exp(−yᵢ(wᵀxᵢ+b))) +
//	    ρ/2‖w−(z−γ)‖² + ρ/2(b−(s−β))²
//
// by damped Newton (the objective is smooth and strongly convex, so a
// handful of Newton steps suffice), and the Reducer securely averages the
// iterates. This demonstrates the framework's claim to "machine learning
// algorithms" beyond SVMs: any local solver that returns a vector iterate
// plugs into the same Map/secure-Reduce loop — here the very task (logistic
// regression) that the ε-differential-privacy line of work the paper's
// Section II discusses was designed for, solved with the paper's
// cryptographic approach instead.
func TrainHorizontalLogistic(ctx context.Context, parts []*dataset.Dataset, cfg Config) (*LogisticModel, *History, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, nil, err
	}
	k, err := validateHorizontalParts(parts)
	if err != nil {
		return nil, nil, err
	}
	if err := checkEvalSet(cfg, k); err != nil {
		return nil, nil, err
	}
	m := len(parts)

	mappers := make([]mapreduce.IterativeMapper, m)
	for i, p := range parts {
		mappers[i] = newLogisticMapper(p, m, cfg)
	}
	final, h, err := trainMean(ctx, cfg, "logistic", mappers, k+1, func(state []float64) (float64, error) {
		model := LogisticModel{W: state[:k], B: state[k]}
		return eval.ClassifierAccuracy(&model, cfg.EvalSet)
	})
	if err != nil {
		return nil, nil, err
	}
	return &LogisticModel{W: linalg.CopyVec(final[:k]), B: final[k]}, h, nil
}

// logisticMapper is one learner's Map() task for consensus logistic
// regression: a damped-Newton solve of the proximal local objective. Its
// scaled duals (γ, β) and last iterate are a one-chunk virtualLearners, whose
// mean over one chunk is that chunk's term, w + γ and b + β.
type logisticMapper struct {
	m   int
	cfg Config
	x   *linalg.Matrix
	y   []float64
	vl  virtualLearners
}

func newLogisticMapper(p *dataset.Dataset, m int, cfg Config) *logisticMapper {
	return &logisticMapper{m: m, cfg: cfg, x: p.X, y: p.Y, vl: newVirtualLearners(1, p.Features())}
}

// Contribution implements mapreduce.IterativeMapper.
func (mp *logisticMapper) Contribution(iter int, state []float64) ([]float64, error) {
	c, u, t := mp.vl.open(0, 0, state)
	w, b, err := mp.newtonSolve(u, t, c.prev, c.prevB)
	if err != nil {
		return nil, err
	}
	copy(c.prev, w)
	return mp.vl.commit(c, nil, b), nil
}

// newtonSolve minimizes the proximal local objective in (w, b) with damped
// Newton steps, warm-started at (w0, b0).
func (mp *logisticMapper) newtonSolve(u []float64, t float64, w0 []float64, b0 float64) ([]float64, float64, error) {
	k := mp.x.Cols
	n := mp.x.Rows
	dim := k + 1
	// Variable vector v = (w, b), warm-started.
	v := make([]float64, dim)
	copy(v, w0)
	v[k] = b0

	reg := make([]float64, dim) // per-coordinate quadratic weight
	for j := 0; j < k; j++ {
		reg[j] = 1/float64(mp.m) + mp.cfg.Rho
	}
	reg[k] = mp.cfg.Rho
	center := make([]float64, dim) // proximal center (scaled)
	for j := 0; j < k; j++ {
		center[j] = mp.cfg.Rho * u[j]
	}
	center[k] = mp.cfg.Rho * t

	obj := func(v []float64) float64 {
		o := 0.0
		for j := 0; j < k; j++ {
			o += 0.5/float64(mp.m)*v[j]*v[j] + 0.5*mp.cfg.Rho*(v[j]-u[j])*(v[j]-u[j])
		}
		o += 0.5 * mp.cfg.Rho * (v[k] - t) * (v[k] - t)
		for i := 0; i < n; i++ {
			f := linalg.Dot(mp.x.Row(i), v[:k]) + v[k]
			o += mp.cfg.C * logistic1p(-mp.y[i]*f)
		}
		return o
	}

	grad := make([]float64, dim)
	hess := linalg.NewMatrix(dim, dim)
	step := make([]float64, dim)
	const maxNewton = 25
	for it := 0; it < maxNewton; it++ {
		// Gradient and Hessian of the smooth objective.
		for j := range grad {
			grad[j] = reg[j]*v[j] - center[j]
		}
		linalg.Zero(hess.Data)
		for j := 0; j < dim; j++ {
			hess.Set(j, j, reg[j])
		}
		for i := 0; i < n; i++ {
			row := mp.x.Row(i)
			f := linalg.Dot(row, v[:k]) + v[k]
			sig := 1 / (1 + math.Exp(mp.y[i]*f)) // σ(−y f)
			gi := -mp.cfg.C * mp.y[i] * sig
			linalg.Axpy(gi, row, grad[:k])
			grad[k] += gi
			d := mp.cfg.C * sig * (1 - sig)
			if d < 1e-12 {
				continue
			}
			for a := 0; a < k; a++ {
				va := d * row[a]
				if va == 0 {
					continue
				}
				ha := hess.Row(a)
				for bcol := 0; bcol < k; bcol++ {
					ha[bcol] += va * row[bcol]
				}
				ha[k] += va
			}
			hk := hess.Row(k)
			for bcol := 0; bcol < k; bcol++ {
				hk[bcol] += d * row[bcol]
			}
			hk[k] += d
		}
		if linalg.NormInf(grad) < 1e-9*(1+mp.cfg.Rho) {
			break
		}
		ch, err := linalg.FactorizeCholeskyInPlace(hess)
		if err != nil {
			return nil, 0, fmt.Errorf("consensus logistic newton: %w", err)
		}
		if _, err := ch.SolveVec(grad, step); err != nil {
			return nil, 0, err
		}
		// Damped step: halve until the objective decreases.
		base := obj(v)
		alpha := 1.0
		cand := make([]float64, dim)
		for ls := 0; ls < 30; ls++ {
			for j := range cand {
				cand[j] = v[j] - alpha*step[j]
			}
			if obj(cand) <= base {
				break
			}
			alpha /= 2
		}
		copy(v, cand)
	}
	return v[:k], v[k], nil
}

// logistic1p computes log(1 + exp(a)) stably.
func logistic1p(a float64) float64 {
	if a > 30 {
		return a
	}
	return math.Log1p(math.Exp(a))
}

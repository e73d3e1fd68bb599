// Package svm implements the centralized support vector machine used as the
// paper's benchmark (Section VI): the standard soft-margin dual (problem (2)),
// for both linear and kernelized classifiers.
package svm

import (
	"errors"
	"fmt"
	"math"

	"github.com/ppml-go/ppml/internal/kernel"
	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/qp"
)

// ErrBadTrainingSet indicates malformed training data (label/row mismatch,
// labels outside {−1,+1}, or an empty set).
var ErrBadTrainingSet = errors.New("svm: bad training set")

// svEps is the dual value above which a sample counts as a support vector,
// and within which of C it counts as bound; tol is the dual solve's KKT
// tolerance.
const svEps, tol = 1e-8, 1e-4

// Params configures training.
type Params struct {
	// C is the slack penalty of problem (1). Required, > 0.
	C float64
	// Kernel defaults to kernel.Linear{} when nil.
	Kernel kernel.Kernel
}

// Model is a trained SVM classifier.
type Model struct {
	// Kernel used during training.
	Kernel kernel.Kernel
	// SupportX holds the support vectors, one per row.
	SupportX *linalg.Matrix
	// Coef[i] = λᵢ·yᵢ for support vector i.
	Coef []float64
	// B is the bias term of the discriminant function.
	B float64
	// W is the explicit primal weight vector; populated only for the linear
	// kernel, enabling O(k) prediction.
	W []float64
	// SupportCount is the number of support vectors (len(Coef)).
	SupportCount int
	// Iterations is the number of dual updates spent in training.
	Iterations int
	// Converged reports whether the dual solve met its tolerance.
	Converged bool
}

// Train fits a soft-margin SVM on rows of x with labels y ∈ {−1,+1}ⁿ by
// solving the Wolfe dual (problem (2) of the paper): Gram-free for a linear
// kernel, whose bias is the equality's multiplier, and with SMO on the Gram
// otherwise. Model.Converged reports a solve stopped at its update cap.
func Train(x *linalg.Matrix, y []float64, p Params) (*Model, error) {
	if x == nil || x.Rows == 0 {
		return nil, fmt.Errorf("%w: empty training set", ErrBadTrainingSet)
	}
	if len(y) != x.Rows {
		return nil, fmt.Errorf("%w: %d rows but %d labels", ErrBadTrainingSet, x.Rows, len(y))
	}
	for i, v := range y {
		if v != 1 && v != -1 {
			return nil, fmt.Errorf("%w: label[%d] = %g, want ±1", ErrBadTrainingSet, i, v)
		}
	}
	if !(p.C > 0) {
		return nil, fmt.Errorf("%w: C = %g, want > 0", ErrBadTrainingSet, p.C)
	}
	k := p.Kernel
	if k == nil {
		k = kernel.Linear{}
	}
	if err := kernel.Validate(k); err != nil {
		return nil, fmt.Errorf("svm: %w", err)
	}

	pvec := make([]float64, x.Rows)
	for i := range pvec {
		pvec[i] = -1
	}
	var res *qp.Result
	var err error
	if _, ok := k.(kernel.Linear); ok {
		res, err = qp.SolveLinearEqualityBox(qp.LinearProblem{X: x, Y: y, Eta: 1, P: pvec, C: p.C}, 0, qp.WithTolerance(tol))
	} else {
		// Dual Hessian H with Hij = yᵢ K(xᵢ, xⱼ) yⱼ.
		h := kernel.GramMatrix(k, x)
		for i := 0; i < h.Rows; i++ {
			row := h.Row(i)
			for j := range row {
				row[j] *= y[i] * y[j]
			}
		}
		res, err = qp.SolveEqualityBox(qp.Problem{Q: h, P: pvec, C: p.C}, y, 0, qp.WithTolerance(tol))
	}
	if err != nil {
		return nil, fmt.Errorf("svm dual solve: %w", err)
	}
	return assemble(x, y, res, p.C, k)
}

// assemble extracts support vectors, computes the bias, and (for linear
// kernels) the explicit weight vector.
func assemble(x *linalg.Matrix, y []float64, res *qp.Result, c float64, k kernel.Kernel) (*Model, error) {
	var idx []int
	for i, l := range res.Lambda {
		if l > svEps {
			idx = append(idx, i)
		}
	}
	sx := linalg.NewMatrix(len(idx), x.Cols)
	coef := make([]float64, len(idx))
	for r, i := range idx {
		copy(sx.Row(r), x.Row(i))
		coef[r] = res.Lambda[i] * y[i]
	}
	m := &Model{Kernel: k, SupportX: sx, Coef: coef, SupportCount: len(idx), Iterations: res.Iterations, Converged: res.Converged}

	if _, ok := k.(kernel.Linear); ok {
		w := make([]float64, x.Cols)
		for r := range coef {
			linalg.Axpy(coef[r], sx.Row(r), w)
		}
		m.W, m.B = w, res.Multiplier
		return m, nil
	}

	scores, err := m.Decisions(x, nil) // B is still 0: the bias-free scores f₀(xᵢ)
	if err != nil {
		return nil, err
	}
	m.B = BiasFromKKT(scores, y, res.Lambda, c)
	return m, nil
}

// BiasFromKKT recovers the bias b from the KKT conditions of the soft-margin
// dual, given each sample's bias-free score f₀(xᵢ), its label and its dual λᵢ
// in [0, C]. Free support vectors (0 < λ < C) satisfy yᵢ(f₀(xᵢ) + b) = 1
// exactly; b is their mean (Burges' suggestion, Section III-A). With none
// free, b is the midpoint of the interval the margin inequalities allow, the
// one finite end when only one is, and 0 when neither is. The centralized
// solver and the vertical schemes' Reducer (on the summed scores ζ) both use it.
func BiasFromKKT(scores, y, lambda []float64, c float64) float64 {
	var sum float64
	var free int
	lb, ub := math.Inf(-1), math.Inf(1)
	for i := range lambda {
		margin := y[i] - scores[i] // candidate b making yᵢ(f₀+b) = 1
		switch {
		case lambda[i] > svEps && lambda[i] < c-svEps:
			sum += margin
			free++
		case lambda[i] <= svEps: // yᵢ(f₀+b) ≥ 1
			if y[i] > 0 {
				lb = math.Max(lb, margin)
			} else {
				ub = math.Min(ub, margin)
			}
		default: // λ = C: yᵢ(f₀+b) ≤ 1
			if y[i] > 0 {
				ub = math.Min(ub, margin)
			} else {
				lb = math.Max(lb, margin)
			}
		}
	}
	switch {
	case free > 0:
		return sum / float64(free)
	case !math.IsInf(lb, -1) && !math.IsInf(ub, 1):
		return (lb + ub) / 2
	case !math.IsInf(lb, -1):
		return lb
	case !math.IsInf(ub, 1):
		return ub
	}
	return 0
}

// Decision returns the real-valued discriminant f(x) = Σ λᵢyᵢK(xᵢ,x) + b:
// Decisions on x viewed as one row, so it has the bits of x's row in any
// batch. It panics with the linalg.ErrShape error Decisions returns when x
// is not as wide as the training samples.
func (m *Model) Decision(x []float64) float64 {
	var d [1]float64
	if _, err := m.Decisions(&linalg.Matrix{Rows: 1, Cols: len(x), Data: x}, d[:]); err != nil {
		panic(err)
	}
	return d[0]
}

// Predict returns the class label, +1 or −1 (ties resolve to +1).
func (m *Model) Predict(x []float64) float64 {
	if m.Decision(x) >= 0 {
		return 1
	}
	return -1
}

// Decisions scores every row of x: dst[i] = f(x_i), one MulVec for a linear
// model and the tiled kernel path (kernel.Accumulate) otherwise. A nil dst is
// allocated; otherwise it must hold x.Rows values, which are overwritten.
// The arithmetic of a row does not depend on the other rows, so Decision is
// this call on one row.
func (m *Model) Decisions(x *linalg.Matrix, dst []float64) ([]float64, error) {
	if dst == nil {
		dst = make([]float64, x.Rows)
	} else if len(dst) != x.Rows {
		return nil, fmt.Errorf("svm decisions: %w: dst length %d for %d samples", linalg.ErrShape, len(dst), x.Rows)
	}
	if m.W != nil {
		if _, err := x.MulVec(m.W, dst); err != nil {
			return nil, err
		}
		for i := range dst {
			dst[i] += m.B
		}
		return dst, nil
	}
	for i := range dst {
		dst[i] = m.B
	}
	if err := kernel.Accumulate(m.Kernel, x, m.SupportX, m.Coef, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// Package svm implements the centralized support vector machine used as the
// paper's benchmark (Section VI): the standard soft-margin dual (problem (2))
// trained with SMO, for both linear and kernelized classifiers.
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

// Params configures training.
type Params struct {
	// C is the slack penalty of problem (1). Required, > 0.
	C float64
	// Kernel defaults to kernel.Linear{} when nil.
	Kernel kernel.Kernel
	// Tol is the SMO KKT tolerance (default 1e-4, LIBSVM-like).
	Tol float64
	// MaxIter caps SMO updates (default: qp package default).
	MaxIter int
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
	// Iterations is the number of SMO updates spent in training.
	Iterations int
}

// Train fits a soft-margin SVM on rows of x with labels y ∈ {−1,+1}ⁿ by
// solving the Wolfe dual (problem (2) of the paper) with SMO.
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
	tol := p.Tol
	if tol <= 0 {
		tol = 1e-4
	}

	// Dual Hessian H with Hij = yᵢ K(xᵢ, xⱼ) yⱼ.
	h := kernel.GramMatrix(k, x)
	for i := 0; i < h.Rows; i++ {
		row := h.Row(i)
		for j := range row {
			row[j] *= y[i] * y[j]
		}
	}
	pvec := make([]float64, x.Rows)
	for i := range pvec {
		pvec[i] = -1
	}
	opts := []qp.Option{qp.WithTolerance(tol)}
	if p.MaxIter > 0 {
		opts = append(opts, qp.WithMaxIter(p.MaxIter))
	}
	res, err := qp.SolveEqualityBox(qp.Problem{Q: h, P: pvec, C: p.C}, y, 0, opts...)
	if err != nil {
		return nil, fmt.Errorf("svm dual solve: %w", err)
	}

	return assemble(x, y, res.Lambda, p.C, k, res.Iterations)
}

// assemble extracts support vectors, computes the bias, and (for linear
// kernels) the explicit weight vector.
func assemble(x *linalg.Matrix, y, lambda []float64, c float64, k kernel.Kernel, iters int) (*Model, error) {
	const svEps = 1e-8
	var idx []int
	for i, l := range lambda {
		if l > svEps {
			idx = append(idx, i)
		}
	}
	sx := linalg.NewMatrix(len(idx), x.Cols)
	coef := make([]float64, len(idx))
	for r, i := range idx {
		copy(sx.Row(r), x.Row(i))
		coef[r] = lambda[i] * y[i]
	}
	m := &Model{Kernel: k, SupportX: sx, Coef: coef, SupportCount: len(idx), Iterations: iters}

	if _, ok := k.(kernel.Linear); ok {
		w := make([]float64, x.Cols)
		for r := range coef {
			linalg.Axpy(coef[r], sx.Row(r), w)
		}
		m.W = w
	}

	// Bias from the KKT conditions. Free support vectors (0 < λ < C) satisfy
	// yᵢ(f₀(xᵢ) + b) = 1 exactly; average over them (Burges' suggestion,
	// Section III-A). With none free, fall back to the midpoint of the bound
	// interval implied by the margin inequalities.
	var sum float64
	var free int
	lb, ub := math.Inf(-1), math.Inf(1)
	for i := range lambda {
		f0 := m.decisionNoBias(x.Row(i))
		margin := y[i] - f0 // candidate b making yᵢ(f₀+b) = 1
		switch {
		case lambda[i] > svEps && lambda[i] < c-svEps:
			sum += margin
			free++
		case lambda[i] <= svEps:
			// yᵢ(f₀+b) ≥ 1: for y=+1, b ≥ 1−f₀... provides bound on b.
			if y[i] > 0 {
				lb = math.Max(lb, margin)
			} else {
				ub = math.Min(ub, margin)
			}
		default: // λ = C
			if y[i] > 0 {
				ub = math.Min(ub, margin)
			} else {
				lb = math.Max(lb, margin)
			}
		}
	}
	switch {
	case free > 0:
		m.B = sum / float64(free)
	case !math.IsInf(lb, -1) && !math.IsInf(ub, 1):
		m.B = (lb + ub) / 2
	case !math.IsInf(lb, -1):
		m.B = lb
	case !math.IsInf(ub, 1):
		m.B = ub
	}
	return m, nil
}

// decisionNoBias returns Σᵢ coefᵢ K(svᵢ, x), the discriminant without bias.
func (m *Model) decisionNoBias(x []float64) float64 {
	if m.W != nil {
		return linalg.Dot(m.W, x)
	}
	var s float64
	for i := range m.Coef {
		s += m.Coef[i] * m.Kernel.Eval(m.SupportX.Row(i), x)
	}
	return s
}

// Decision returns the real-valued discriminant f(x) = Σ λᵢyᵢK(xᵢ,x) + b.
func (m *Model) Decision(x []float64) float64 {
	return m.decisionNoBias(x) + m.B
}

// Predict returns the class label, +1 or −1 (ties resolve to +1).
func (m *Model) Predict(x []float64) float64 {
	if m.Decision(x) >= 0 {
		return 1
	}
	return -1
}

// Decisions is the batch form of Decision: dst[i] = f(x_i) for every row of
// x, one MulVec for a linear model and the tiled kernel path
// (kernel.Accumulate) otherwise. A nil dst is allocated; otherwise it must
// hold x.Rows values, which are overwritten. Values agree with Decision to
// rounding, not bit for bit: the dots and the order of the sum differ, the
// kernel transform (RBF's exp included) is the same function on both sides
// (see kernel.Accumulate).
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

// Package kernel implements the kernel functions of Section III-B of the
// paper (linear, polynomial, radial basis function, sigmoid) and helpers for
// computing kernel (Gram) matrices between sample sets.
//
// A Kernel is a positive-(semi)definite similarity K(x, y) = ⟨φ(x), φ(y)⟩ in
// some reproducing-kernel Hilbert space. The consensus trainers only ever
// touch data through these evaluations, which is what makes the landmark
// trick of Section IV-B work without materializing φ.
package kernel

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/parallel"
)

// Kernel evaluates a positive-semidefinite similarity between two feature
// vectors of equal length. The set is closed: the four kernels of Section
// III-B below are the only implementations (rowForm is unexported), which is
// what lets Matrix, GramMatrix and Accumulate be the tiled panel path and
// nothing else.
type Kernel interface {
	// Eval returns K(x, y). Implementations must be symmetric in x and y.
	Eval(x, y []float64) float64
	// Name returns a short identifier used in logs and experiment output.
	Name() string
	// rowForm is the kernel as a function of the inner product, a panel row
	// at a time: it turns row[j] = ⟨x, y_j⟩ into K(x, y_j) in place, given
	// sqX = ‖x‖² and sq[j] = ‖y_j‖². needNorms reports whether it reads
	// them (RBF only); callers pass 0 and nil otherwise.
	rowForm(row []float64, sqX float64, sq []float64)
	needNorms() bool
}

var (
	// ErrUnknownKernel is returned by Parse for an unrecognized kernel spec.
	ErrUnknownKernel = errors.New("kernel: unknown kernel")
	// ErrBadParameter is returned (wrapped) by Validate, and so by Parse, for
	// a kernel whose parameters do not define a usable similarity.
	ErrBadParameter = errors.New("kernel: bad parameter")
)

// Linear is the inner-product kernel K(x, y) = ⟨x, y⟩.
type Linear struct{}

// Eval implements Kernel.
func (Linear) Eval(x, y []float64) float64 { return linalg.Dot(x, y) }

// Name implements Kernel.
func (Linear) Name() string { return "linear" }

func (Linear) rowForm([]float64, float64, []float64) {}
func (Linear) needNorms() bool                       { return false }

// Polynomial is K(x, y) = (a⟨x, y⟩ + b)^d (paper Section III-B, item 1).
type Polynomial struct {
	A, B   float64
	Degree int
}

// Eval implements Kernel.
func (p Polynomial) Eval(x, y []float64) float64 { return p.ofDot(linalg.Dot(x, y)) }

func (p Polynomial) ofDot(d float64) float64 {
	base := float64(p.A*d) + p.B
	out := 1.0
	for i := 0; i < p.Degree; i++ {
		out *= base
	}
	return out
}

// Name implements Kernel.
func (p Polynomial) Name() string {
	return fmt.Sprintf("poly(a=%g,b=%g,d=%d)", p.A, p.B, p.Degree)
}

func (p Polynomial) rowForm(row []float64, _ float64, _ []float64) {
	for j, d := range row {
		row[j] = p.ofDot(d)
	}
}
func (Polynomial) needNorms() bool { return false }

// RBF is the Gaussian kernel K(x, y) = exp(−γ‖x−y‖²).
//
// The paper prints the RBF kernel without the negative sign (an obvious typo:
// e^{‖x−y‖²} is unbounded and not a kernel); the standard form is used here.
type RBF struct {
	Gamma float64
}

// Eval implements Kernel. The exponential is the one the panel rows go
// through (linalg.RBFRow runs ExpNonPosScalar's operations, bit for bit), so
// Eval and the tiled path differ only in how the squared distance was
// rounded.
func (r RBF) Eval(x, y []float64) float64 {
	return linalg.ExpNonPosScalar(-r.Gamma * linalg.Dist2Sq(x, y))
}

// Name implements Kernel.
func (r RBF) Name() string { return fmt.Sprintf("rbf(gamma=%g)", r.Gamma) }

// rowForm expands ‖x−y‖² = ‖x‖² + ‖y‖² − 2⟨x, y⟩, clamps it at zero, scales
// it by −γ and takes the exp, all in one pass over the row (linalg.RBFRow,
// which documents the clamp's NaN and −0 semantics).
func (r RBF) rowForm(row []float64, sqX float64, sq []float64) {
	linalg.RBFRow(row, sqX, sq, r.Gamma)
}
func (RBF) needNorms() bool { return true }

// Sigmoid is K(x, y) = tanh(a⟨x, y⟩ + c) (paper Section III-B, item 3, with
// the customary slope parameter a).
//
// Sigmoid is not positive semidefinite for all parameter choices; it is
// provided for completeness because the paper lists it.
type Sigmoid struct {
	A, C float64
}

// Eval implements Kernel.
func (s Sigmoid) Eval(x, y []float64) float64 {
	return math.Tanh(float64(s.A*linalg.Dot(x, y)) + s.C)
}

// Name implements Kernel.
func (s Sigmoid) Name() string { return fmt.Sprintf("sigmoid(a=%g,c=%g)", s.A, s.C) }

func (s Sigmoid) rowForm(row []float64, _ float64, _ []float64) {
	for j, d := range row {
		row[j] = math.Tanh(float64(s.A*d) + s.C)
	}
}
func (Sigmoid) needNorms() bool { return false }

// Matrix computes the cross Gram matrix K(A, B) with K[i][j] = k(A_i, B_j),
// where rows of a and b are samples: panel dots via the register-tiled linalg
// kernel, then the kernel's elementwise transform. Panels are computed
// concurrently on the parallel worker pool for inputs large enough to
// amortize the scheduling, and the per-entry arithmetic is identical on the
// sequential and parallel paths, so the result does not depend on the worker
// count.
func Matrix(k Kernel, a, b *linalg.Matrix) (*linalg.Matrix, error) {
	return MatrixInto(k, a, b, nil)
}

// MatrixInto computes the cross Gram matrix into dst per the linalg dst-reuse
// contract: nil allocates, a dst with sufficient backing capacity is reshaped
// and reused in place, and a too-small dst is an error.
func MatrixInto(k Kernel, a, b, dst *linalg.Matrix) (*linalg.Matrix, error) {
	if a.Cols != b.Cols {
		return nil, fmt.Errorf("kernel matrix: %w: samples have %d and %d features",
			linalg.ErrShape, a.Cols, b.Cols)
	}
	out, err := linalg.ReuseMatrix(dst, "kernel matrix", a.Rows, b.Rows)
	if err != nil {
		return nil, err
	}
	if a == b {
		// Self-similarity: the symmetric panel path (mirrored entries, exact
		// diagonal) at half the work; blocks own disjoint output elements.
		gramTiled(k, a, rowNormsSq(k, a), out, parallel.UsePool(a.Rows*a.Rows*a.Cols/2))
		return out, nil
	}
	// With the squared row norms computed once, an RBF entry costs one panel
	// dot plus its share of the row transform.
	matrixTiled(k, a, b, rowNormsSq(k, a), rowNormsSq(k, b), out, parallel.UsePool(a.Rows*b.Rows*a.Cols))
	return out, nil
}

// GramMatrix computes the symmetric Gram matrix K(A, A), evaluating each pair
// once and mirroring it: MatrixInto's self-similarity path into a fresh
// matrix.
func GramMatrix(k Kernel, a *linalg.Matrix) *linalg.Matrix {
	out, _ := MatrixInto(k, a, a, nil) // a against itself into a nil dst has no shape to get wrong
	return out
}

// rowNormsSq returns ‖a_i‖² for every row — nil for a kernel whose row form
// reads no norms.
func rowNormsSq(k Kernel, a *linalg.Matrix) []float64 {
	if !k.needNorms() {
		return nil
	}
	sq := make([]float64, a.Rows)
	rowNormsInto(a, sq)
	return sq
}

// rowNormsInto sets sq[i] = ‖a_i‖² for every row, on the worker pool when the
// pool is wide and the matrix large.
func rowNormsInto(a *linalg.Matrix, sq []float64) {
	if parallel.UsePool(a.Rows * a.Cols) {
		parallel.For(a.Rows, parallel.RowGrain(a.Cols), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				ri := a.Row(i)
				sq[i] = linalg.Dot(ri, ri)
			}
		})
		return
	}
	for i := 0; i < a.Rows; i++ {
		ri := a.Row(i)
		sq[i] = linalg.Dot(ri, ri)
	}
}

// Parse builds a Kernel from a CLI-style spec: "linear", "rbf:<gamma>",
// "poly:<a>:<b>:<degree>", or "sigmoid:<a>:<c>". The whole spec must parse
// and the parameters must pass Validate.
func Parse(spec string) (Kernel, error) {
	f := strings.Split(spec, ":")
	var (
		k  Kernel
		ok bool
	)
	switch {
	case spec == "linear":
		k, ok = Linear{}, true
	case f[0] == "rbf" && len(f) == 2:
		var r RBF
		ok = parseFloats(f[1:], &r.Gamma)
		k = r
	case f[0] == "poly" && len(f) == 4:
		var p Polynomial
		var err error
		p.Degree, err = strconv.Atoi(f[3])
		ok = err == nil && parseFloats(f[1:3], &p.A, &p.B)
		k = p
	case f[0] == "sigmoid" && len(f) == 3:
		var s Sigmoid
		ok = parseFloats(f[1:], &s.A, &s.C)
		k = s
	}
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownKernel, spec)
	}
	if err := Validate(k); err != nil {
		return nil, err
	}
	return k, nil
}

// parseFloats parses fields[i] into *dst[i] and reports whether every field
// was a complete number.
func parseFloats(fields []string, dst ...*float64) bool {
	for i, s := range fields {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return false
		}
		*dst[i] = v
	}
	return true
}

// Validate reports whether k's parameters define a usable kernel: every
// parameter finite, γ > 0 for RBF, degree ≥ 1 for Polynomial. Parse (the
// -kernel flag, model files) and the kernel trainers' config check go through
// it.
func Validate(k Kernel) error {
	var ok bool
	switch kk := k.(type) {
	case Linear:
		ok = true
	case RBF:
		ok = finite(kk.Gamma) && kk.Gamma > 0
	case Polynomial:
		ok = finite(kk.A, kk.B) && kk.Degree >= 1
	case Sigmoid:
		ok = finite(kk.A, kk.C)
	default:
		return fmt.Errorf("%w: %T", ErrUnknownKernel, k)
	}
	if !ok {
		return fmt.Errorf("%w: %s", ErrBadParameter, k.Name())
	}
	return nil
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Spec returns the Parse-compatible specification of k, so that
// Parse(Spec(k)) reconstructs an equal kernel. It is the serialization hook
// used by model persistence.
func Spec(k Kernel) (string, error) {
	switch kk := k.(type) {
	case Linear:
		return "linear", nil
	case RBF:
		return fmt.Sprintf("rbf:%g", kk.Gamma), nil
	case Polynomial:
		return fmt.Sprintf("poly:%g:%g:%d", kk.A, kk.B, kk.Degree), nil
	case Sigmoid:
		return fmt.Sprintf("sigmoid:%g:%g", kk.A, kk.C), nil
	default:
		return "", fmt.Errorf("%w: cannot serialize %T", ErrUnknownKernel, k)
	}
}

package linalg

import (
	"errors"
	"fmt"
	"math"

	"github.com/ppml-go/ppml/internal/parallel"
)

// ErrNotSPD is returned when Cholesky factorization encounters a
// non-positive pivot, i.e. the input is not symmetric positive definite
// (within floating-point tolerance).
var ErrNotSPD = errors.New("linalg: matrix is not symmetric positive definite")

// Cholesky is the lower-triangular factor L of an SPD matrix A = L Lᵀ.
type Cholesky struct {
	l *Matrix // lower triangular, including diagonal
}

// FactorizeCholesky computes the Cholesky decomposition of the SPD matrix a.
// a is read from its lower triangle only; it is not modified.
//
// After each pivot, the column update below the diagonal — one length-j dot
// product per remaining row, all independent — runs on the parallel worker
// pool when that column holds enough work; small systems keep the plain
// sequential loop. The per-element arithmetic is identical on both paths, so
// the factor does not depend on the worker count.
func FactorizeCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("cholesky: %w: matrix %dx%d not square", ErrShape, a.Rows, a.Cols)
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		lj := l.Row(j)
		d := a.At(j, j) - Dot(lj[:j], lj[:j])
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w: pivot %d is %g", ErrNotSPD, j, d)
		}
		diag := math.Sqrt(d)
		lj[j] = diag
		inv := 1 / diag
		if parallel.UsePool((n - j - 1) * j) {
			cholColumnPar(a, l, lj, j, n, inv)
			continue
		}
		for i := j + 1; i < n; i++ {
			li := l.Row(i)
			li[j] = (a.At(i, j) - Dot(li[:j], lj[:j])) * inv
		}
	}
	return &Cholesky{l: l}, nil
}

// cholColumnPar runs one pivot's sub-diagonal column update on the worker
// pool. It is a separate function so its closure cannot pessimize the
// sequential factorization loop.
func cholColumnPar(a, l *Matrix, lj []float64, j, n int, inv float64) {
	parallel.For(n-j-1, parallel.RowGrain(j), func(lo, hi int) {
		for i := j + 1 + lo; i < j+1+hi; i++ {
			li := l.Row(i)
			li[j] = (a.At(i, j) - Dot(li[:j], lj[:j])) * inv
		}
	})
}

// Size returns the dimension of the factored matrix.
func (c *Cholesky) Size() int { return c.l.Rows }

// SolveVec solves A x = b, overwriting nothing; the solution is returned in
// dst (allocated when nil). dst may alias b.
func (c *Cholesky) SolveVec(b, dst []float64) ([]float64, error) {
	n := c.l.Rows
	if len(b) != n {
		return nil, fmt.Errorf("cholesky solve: %w: rhs length %d, want %d", ErrShape, len(b), n)
	}
	if dst == nil {
		dst = make([]float64, n)
	}
	copy(dst, b)
	// Forward substitution: L y = b.
	for i := 0; i < n; i++ {
		li := c.l.Row(i)
		s := dst[i]
		for k := 0; k < i; k++ {
			s -= li[k] * dst[k]
		}
		dst[i] = s / li[i]
	}
	// Back substitution: Lᵀ x = y.
	for i := n - 1; i >= 0; i-- {
		s := dst[i]
		for k := i + 1; k < n; k++ {
			s -= c.l.At(k, i) * dst[k]
		}
		dst[i] = s / c.l.At(i, i)
	}
	return dst, nil
}

// SolveMatrix solves A X = B column by column, returning X.
func (c *Cholesky) SolveMatrix(b *Matrix) (*Matrix, error) {
	if b.Rows != c.l.Rows {
		return nil, fmt.Errorf("cholesky solve: %w: B has %d rows, want %d", ErrShape, b.Rows, c.l.Rows)
	}
	x := NewMatrix(b.Rows, b.Cols)
	col := make([]float64, b.Rows)
	for j := 0; j < b.Cols; j++ {
		b.Col(j, col)
		sol, err := c.SolveVec(col, col)
		if err != nil {
			return nil, err
		}
		for i := 0; i < b.Rows; i++ {
			x.Set(i, j, sol[i])
		}
	}
	return x, nil
}

// Inverse returns A⁻¹ explicitly. Prefer SolveVec/SolveMatrix in hot paths;
// this is provided for the landmark correction terms that are reused across
// many ADMM iterations, where paying for the explicit inverse once is cheaper.
func (c *Cholesky) Inverse() (*Matrix, error) {
	return c.SolveMatrix(Identity(c.l.Rows))
}

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

// cholPanel is the column width of one panel of the blocked factorization.
// The first panel is the unblocked loop itself, so factors of order ≤
// cholPanel are bit-identical to it.
const cholPanel = 32

// FactorizeCholesky computes the Cholesky decomposition of the SPD matrix a.
// a is read from its lower triangle only; it is not modified: the triangle is
// copied and factored by FactorizeCholeskyInPlace.
func FactorizeCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("cholesky: %w: matrix %dx%d not square", ErrShape, a.Rows, a.Cols)
	}
	l := NewMatrix(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		copy(l.Row(i)[:i+1], a.Row(i)[:i+1])
	}
	return FactorizeCholeskyInPlace(l)
}

// FactorizeCholeskyInPlace factors the SPD matrix a, read from its lower
// triangle, into a itself: the lower triangle is overwritten with L, the
// upper triangle is zeroed, and the returned factor aliases a, so a must not
// be modified while the factor is in use. After an error the contents of a
// are unspecified.
//
// The factorization is left-looking and blocked by cholPanel columns. For
// each panel [j0, j1) the sums Σ_{k<j0} L_ik·L_ck over the finished columns
// are subtracted from the panel's entries with the tile kernel, its right
// operand (the panel rows' finished parts) packed once per panel, the
// diagonal block is factored with the unblocked loop, and every row below it
// is solved against that block. The rows below are independent, so the tile
// update and the solve run fused, one worker-pool dispatch per panel. Each
// entry is A_ic − (the tile's FMA chain over k < j0) − Dot over [j0, c), so
// the factor depends on neither the worker count nor hasFMA.
func FactorizeCholeskyInPlace(a *Matrix) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("cholesky: %w: matrix %dx%d not square", ErrShape, a.Rows, a.Cols)
	}
	n := a.Rows
	// One pack serves every panel, sized once for the widest and longest.
	p := grabPacked(cholPanel, max(n-1, 0)/cholPanel*cholPanel)
	for j0 := 0; j0 < n; j0 += cholPanel {
		j1 := min(j0+cholPanel, n)
		p.reshape(j1-j0, j0)
		p.packRows(a.Data[j0*n:], n)
		cholPanelUpdate(a, p, j0, j1, j0, j1)
		if err := cholDiagBlock(a, j0, j1); err != nil {
			return nil, err // the pack is left to the collector
		}
		if parallel.UsePool((n - j1) * j1 * (j1 - j0)) {
			cholBelowPar(a, p, j0, j1)
		} else {
			cholBelow(a, p, j0, j1, j1, n)
		}
	}
	p.Release()
	for i := 0; i < n; i++ {
		Zero(a.Row(i)[i+1:])
	}
	return &Cholesky{l: a}, nil
}

// cholDiagBlock factors the diagonal block [j0, j1) of a panel whose tile
// update is done: the unblocked loop with its dots over the panel columns.
// Entries right of the diagonal that the tile update wrote are never read.
func cholDiagBlock(a *Matrix, j0, j1 int) error {
	for j := j0; j < j1; j++ {
		lj := a.Row(j)
		d := lj[j] - Dot(lj[j0:j], lj[j0:j])
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("%w: pivot %d is %g", ErrNotSPD, j, d)
		}
		diag := math.Sqrt(d)
		lj[j] = diag
		inv := 1 / diag
		for i := j + 1; i < j1; i++ {
			li := a.Row(i)
			li[j] = (li[j] - Dot(li[j0:j], lj[j0:j])) * inv
		}
	}
	return nil
}

// cholBelow finishes the panel columns [j0, j1) of rows [rlo, rhi), all at
// or below j1: the tile update, then each row solved against the factored
// diagonal block with the unblocked loop's per-element operations.
func cholBelow(a *Matrix, p Packed, j0, j1, rlo, rhi int) {
	cholPanelUpdate(a, p, j0, j1, rlo, rhi)
	var inv [cholPanel]float64
	for c := j0; c < j1; c++ {
		inv[c-j0] = 1 / a.At(c, c)
	}
	for i := rlo; i < rhi; i++ {
		li := a.Row(i)
		for c := j0; c < j1; c++ {
			lc := a.Row(c)
			li[c] = (li[c] - Dot(li[j0:c], lc[j0:c])) * inv[c-j0]
		}
	}
}

// cholBelowPar runs cholBelow over the rows below a panel on the worker pool,
// in blocks of whole row tiles. It is a separate function so its closure
// cannot pessimize the sequential factorization loop.
func cholBelowPar(a *Matrix, p Packed, j0, j1 int) {
	rows := a.Rows - j1
	tiles := (rows + tileM - 1) / tileM
	parallel.For(tiles, tileRowGrain(tileM*j1*(j1-j0)), func(lo, hi int) {
		rlo, rhi := tileRange(lo, hi, rows)
		cholBelow(a, p, j0, j1, j1+rlo, j1+rhi)
	})
}

// cholPanelUpdate subtracts Σ_{k<j0} a_ik·a_ck from a_ic for the rows
// [rlo, rhi) and the panel columns c ∈ [j0, j1): the a·bᵀ of the rows' and the
// panel rows' finished parts, the latter packed in p, a row tile at a time
// into a stack buffer and subtracted from there.
func cholPanelUpdate(a *Matrix, p Packed, j0, j1, rlo, rhi int) {
	if j0 == 0 {
		return
	}
	var s [tileM * cholPanel]float64
	for i := rlo; i < rhi; i += tileM {
		ih := min(i+tileM, rhi)
		tileRows(a.Data, a.Cols, p, s[:], cholPanel, i, ih)
		for r := i; r < ih; r++ {
			row, sr := a.Row(r)[j0:j1], s[(r-i)*cholPanel:]
			for c := range row {
				row[c] -= sr[c]
			}
		}
	}
}

// SolveVec solves A x = b, overwriting nothing; the solution is returned in
// dst (allocated when nil, else of length n). dst may alias b.
//
// Both substitutions read L by rows. The forward pass is one Dot per row,
// y_i = (b_i − L_i[:i]·y[:i]) / L_ii; the back pass solves Lᵀ by its
// columns, which are L's rows: for j from n−1 down, x_j = y_j / L_jj is
// final, and Axpy(−x_j, L_j[:j], x[:j]) takes it out of every earlier entry.
// Each x_i thus receives its subtractions in descending j, one fma each, and
// the bits are Dot's and Axpy's, so they depend on neither hasFMA nor the
// platform.
func (c *Cholesky) SolveVec(b, dst []float64) ([]float64, error) {
	n := c.l.Rows
	if len(b) != n {
		return nil, fmt.Errorf("cholesky solve: %w: rhs length %d, want %d", ErrShape, len(b), n)
	}
	if dst == nil {
		dst = make([]float64, n)
	} else if len(dst) != n {
		return nil, fmt.Errorf("cholesky solve: %w: dst length %d, want %d", ErrShape, len(dst), n)
	}
	copy(dst, b)
	for i := 0; i < n; i++ {
		li := c.l.Row(i)
		dst[i] = (dst[i] - Dot(li[:i], dst[:i])) / li[i]
	}
	for j := n - 1; j >= 0; j-- {
		lj := c.l.Row(j)
		dst[j] /= lj[j]
		Axpy(-dst[j], lj[:j], dst[:j])
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

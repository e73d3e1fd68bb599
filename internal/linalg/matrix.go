// Package linalg provides the dense linear-algebra substrate used by every
// solver in this repository: row-major matrices, vector kernels, and the SPD
// (Cholesky) factorization.
//
// The package is deliberately small and allocation-conscious rather than a
// general BLAS replacement: the consensus trainers call these routines inside
// tight ADMM loops, so most mutating operations accept destination buffers.
package linalg

import (
	"errors"
	"fmt"

	"github.com/ppml-go/ppml/internal/parallel"
)

// Matrix is a dense, row-major matrix.
//
// The zero value is an empty 0x0 matrix. Data is laid out so that element
// (i, j) lives at Data[i*Cols+j]; Row returns a slice view into that storage.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// ErrShape is returned (wrapped) by operations whose operand dimensions do
// not conform.
var ErrShape = errors.New("linalg: dimension mismatch")

// NewMatrix allocates a zeroed r x c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewMatrixFrom builds an r x c matrix copying the supplied row-major data.
func NewMatrixFrom(r, c int, data []float64) (*Matrix, error) {
	if len(data) != r*c {
		return nil, fmt.Errorf("%w: want %d elements, have %d", ErrShape, r*c, len(data))
	}
	m := NewMatrix(r, c)
	copy(m.Data, data)
	return m, nil
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j). Bounds are checked by the slice access.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice view into the matrix storage. Mutating the
// returned slice mutates the matrix.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Col copies column j into dst (allocated when nil) and returns it.
func (m *Matrix) Col(j int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, m.Rows)
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = m.Data[i*m.Cols+j]
	}
	return dst
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns a newly allocated transpose of m.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// MulVec computes dst = m * x. dst is allocated when nil; it must not alias x.
func (m *Matrix) MulVec(x, dst []float64) ([]float64, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("MulVec: %w: matrix %dx%d, vector %d", ErrShape, m.Rows, m.Cols, len(x))
	}
	if dst == nil {
		dst = make([]float64, m.Rows)
	} else if len(dst) != m.Rows {
		return nil, fmt.Errorf("MulVec: %w: dst length %d, want %d", ErrShape, len(dst), m.Rows)
	}
	if parallel.UsePool(m.Rows * m.Cols) {
		m.mulVecPar(x, dst)
		return dst, nil
	}
	mulVecRows(m, x, dst, 0, m.Rows)
	return dst, nil
}

// mulVecPar is the worker-pool row loop of MulVec. It lives in its own
// function so the closure it builds cannot pessimize the sequential path
// (captured variables force indirection on everything the enclosing function
// touches).
func (m *Matrix) mulVecPar(x, dst []float64) {
	parallel.For(m.Rows, tileRowGrain(m.Cols), func(lo, hi int) {
		mulVecRows(m, x, dst, lo, hi)
	})
}

// MulVecT computes dst = mᵀ * x without materializing the transpose.
func (m *Matrix) MulVecT(x, dst []float64) ([]float64, error) {
	if len(x) != m.Rows {
		return nil, fmt.Errorf("MulVecT: %w: matrix %dx%d, vector %d", ErrShape, m.Rows, m.Cols, len(x))
	}
	if dst == nil {
		dst = make([]float64, m.Cols)
	} else if len(dst) != m.Cols {
		return nil, fmt.Errorf("MulVecT: %w: dst length %d, want %d", ErrShape, len(dst), m.Cols)
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		Axpy(x[i], m.Row(i), dst)
	}
	return dst, nil
}

// reuseInto resolves the shared destination contract of the Into variants
// (the PR-4 dst-reuse contract, matrix form): a nil dst is allocated; a dst
// whose backing array has capacity for r×c is reshaped in place — pass the
// previous round's matrix back in to make steady-state calls allocation-free;
// a non-nil dst that is too small is an error, so callers relying on writing
// through a fixed buffer fail loudly.
func reuseInto(dst *Matrix, op string, r, c int) (*Matrix, error) {
	if dst == nil {
		return NewMatrix(r, c), nil
	}
	if cap(dst.Data) < r*c {
		return nil, fmt.Errorf("%s: %w: dst capacity %d, want ≥ %d", op, ErrShape, cap(dst.Data), r*c)
	}
	dst.Rows, dst.Cols = r, c
	dst.Data = dst.Data[:r*c]
	return dst, nil
}

// ReuseMatrix applies the dst-reuse contract for packages layering their own
// Into variants on this one (kernel.MatrixInto): nil allocates an r×c matrix,
// sufficient backing capacity reshapes dst in place, and a too-small dst is
// an error tagged with op.
func ReuseMatrix(dst *Matrix, op string, r, c int) (*Matrix, error) {
	return reuseInto(dst, op, r, c)
}

// MatMul returns a * b. Output rows are computed concurrently on the
// parallel worker pool when the product is large enough to amortize the
// scheduling; the per-row arithmetic is identical either way, so the result
// does not depend on the worker count.
func MatMul(a, b *Matrix) (*Matrix, error) {
	return MatMulInto(a, b, nil)
}

// MatMulInto computes dst = a * b with the register-tiled kernel, reusing
// dst per the reuseInto contract (nil allocates). dst must not alias a or b.
// b's rows are already k-major, so its pack is a copy of 8-column strips,
// made once before the worker fan-out into pooled scratch.
func MatMulInto(a, b, dst *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("MatMul: %w: %dx%d by %dx%d", ErrShape, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out, err := reuseInto(dst, "MatMul", a.Rows, b.Cols)
	if err != nil {
		return nil, err
	}
	p := grabPacked(b.Cols, b.Rows)
	p.packCols(b.Data, b.Cols)
	matMulTPacked(a, p, out)
	p.Release()
	return out, nil
}

// MatMulT returns a * bᵀ; the common Gram-matrix pattern. Parallelized over
// output row tiles like MatMul.
func MatMulT(a, b *Matrix) (*Matrix, error) {
	return MatMulTInto(a, b, nil)
}

// MatMulTInto computes dst = a * bᵀ with the register-tiled kernel, reusing
// dst per the reuseInto contract (nil allocates). dst must not alias a or b.
func MatMulTInto(a, b, dst *Matrix) (*Matrix, error) {
	if a.Cols != b.Cols {
		return nil, fmt.Errorf("MatMulT: %w: %dx%d by (%dx%d)ᵀ", ErrShape, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out, err := reuseInto(dst, "MatMulT", a.Rows, b.Rows)
	if err != nil {
		return nil, err
	}
	p := PackT(b)
	matMulTPacked(a, p, out)
	p.Release()
	return out, nil
}

// matMulTPacked computes out = a · bᵀ from b's pack, on the worker pool when
// the product is large enough; blocks claim whole row tiles.
func matMulTPacked(a *Matrix, b Packed, out *Matrix) {
	if !parallel.UsePool(a.Rows * a.Cols * b.n) {
		MatMulTRows(a, b, out, 0, a.Rows)
		return
	}
	tiles := (a.Rows + tileM - 1) / tileM
	parallel.For(tiles, tileRowGrain(tileM*a.Cols*b.n), func(lo, hi int) {
		rlo, rhi := tileRange(lo, hi, a.Rows)
		MatMulTRows(a, b, out, rlo, rhi)
	})
}

// MatMulTRows computes only rows [rlo, rhi) of out = a · bᵀ from b's pack
// (PackT), writing out.Row(i) for rlo ≤ i < rhi and touching nothing else.
// It is the panel entry point for callers that drive their own blocking (the
// kernel package packs its right operand once per call and computes Gram
// panels into per-worker scratch arenas); shapes are the caller's contract.
func MatMulTRows(a *Matrix, b Packed, out *Matrix, rlo, rhi int) {
	tileRows(a.Data, a.Cols, b, out.Data[rlo*out.Cols:], out.Cols, rlo, rhi)
}

// Scale multiplies every element of m by alpha.
func (m *Matrix) Scale(alpha float64) {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
}

// AddScaledIdentity computes m += alpha * I for square m.
func (m *Matrix) AddScaledIdentity(alpha float64) error {
	if m.Rows != m.Cols {
		return fmt.Errorf("AddScaledIdentity: %w: matrix %dx%d not square", ErrShape, m.Rows, m.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+i] += alpha
	}
	return nil
}

// SymmetrizeUpper copies the upper triangle onto the lower one, enforcing
// exact symmetry after accumulated floating-point asymmetry.
func (m *Matrix) SymmetrizeUpper() {
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			m.Data[j*m.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
}

package kernel

import (
	"fmt"

	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/parallel"
)

// The tiled Gram path: every kernel is a function of the inner product ⟨x, y⟩
// and, for RBF, the squared row norms, so kernel matrices factor into a dense
// a · bᵀ — computed a block of panelRows rows at a time with the register-tiled
// linalg kernel — followed by the kernel's transform of each row in place
// (Kernel.rowForm: one call per panel row, for RBF one pass of linalg.RBFRow
// that forms the distance, clamps, scales and takes the exp).
// That call is the only transform: Matrix, GramMatrix and Accumulate differ in
// where the dots land and what happens to a finished row, not in how it is
// transformed. The right operand is packed for the tile once per call
// (linalg.PackT), before the worker fan-out, and every panel reads that pack.
// Matrix computes its dots straight into the output rows; the symmetric path
// and Accumulate, the scoring primitive, compute theirs into a scratch panel
// from linalg's scratch pool, so the full n×n dot matrix is never
// materialized, workers never share scratch, and Accumulate — which reduces
// each row against a coefficient vector — retains no kernel matrix at all.

// panelRows is the row height of a dot panel: tall enough that the tiled
// kernel runs at full width and the pool claim amortizes, short enough that
// a panel (panelRows × n doubles) stays modest even for large Gram sizes. It
// is a multiple of the tile's 6 rows, so only a call's last panel has a short
// tile, and of the pack's 8-column panels, so the symmetric path's panel at
// row rlo can start its columns at rlo in the pack (Packed.From).
const panelRows = 48

// rowView returns the submatrix of rows [rlo, rhi) of m as a view sharing
// m's storage.
func rowView(m *linalg.Matrix, rlo, rhi int) linalg.Matrix {
	return linalg.Matrix{Rows: rhi - rlo, Cols: m.Cols, Data: m.Data[rlo*m.Cols : rhi*m.Cols]}
}

// forPanels calls body for every block [rlo, rhi) of panelRows rows of
// [0, rows), on the worker pool when par. The block boundaries do not depend
// on the worker count.
func forPanels(rows int, par bool, body func(rlo, rhi int)) {
	blocks := func(lo, hi int) {
		for rlo := lo; rlo < hi; rlo += panelRows {
			body(rlo, min(rlo+panelRows, hi))
		}
	}
	if par {
		parallel.For(rows, panelRows, blocks)
		return
	}
	blocks(0, rows)
}

// dotPanel returns rows [rlo, rhi) of a · bᵀ, b packed and n columns wide, in
// pooled scratch; the caller releases it.
func dotPanel(a *linalg.Matrix, b linalg.Packed, n, rlo, rhi int) *linalg.Matrix {
	panel := linalg.GrabScratch(rhi-rlo, n)
	av := rowView(a, rlo, rhi)
	linalg.MatMulTRows(&av, b, panel, 0, rhi-rlo)
	return panel
}

// normAt returns sq[i], or 0 for a kernel that reads no norms (sq nil).
func normAt(sq []float64, i int) float64 {
	if sq == nil {
		return 0
	}
	return sq[i]
}

// matrixTiled fills out[i][j] = k(a_i, b_j) a block of rows at a time: the
// dots go straight into the output rows the block owns and are transformed
// there. sqA/sqB are nil when the kernel reads no norms.
func matrixTiled(k Kernel, a, b *linalg.Matrix, sqA, sqB []float64, out *linalg.Matrix, par bool) {
	pb := linalg.PackT(b)
	defer pb.Release()
	forPanels(a.Rows, par, func(rlo, rhi int) {
		linalg.MatMulTRows(a, pb, out, rlo, rhi)
		for i := rlo; i < rhi; i++ {
			k.rowForm(out.Row(i), normAt(sqA, i), sqB)
		}
	})
}

// Accumulate adds the kernel expansion over support to dst:
//
//	dst[i] += Σ_j coef[j]·k(support_j, x_i)
//
// that is dst += K(x, support)·coef, without retaining the x.Rows ×
// support.Rows kernel matrix: each dot panel is transformed and reduced into
// the dst rows it owns as soon as it is computed. Support rows with a zero
// coefficient are gathered out first, and the remaining terms are summed by
// linalg.Dot in support order, so against the scalar
// Σ_j coef[j]·k.Eval(support_j, x_i) only the dot itself (tile kernel, and for
// RBF the norm expansion ‖x‖²+‖y‖²−2⟨x, y⟩ instead of the difference form) and
// the order of the final sum round differently — RBF.Eval goes through the
// same exp as the rows. The per-row arithmetic is the same on the sequential
// and the parallel path, so the result does not depend on the worker count.
func Accumulate(k Kernel, x, support *linalg.Matrix, coef, dst []float64) error {
	if x.Cols != support.Cols {
		return fmt.Errorf("kernel accumulate: %w: samples have %d features, support rows %d",
			linalg.ErrShape, x.Cols, support.Cols)
	}
	if len(coef) != support.Rows || len(dst) != x.Rows {
		return fmt.Errorf("kernel accumulate: %w: %d coefficients for %d support rows, dst length %d for %d samples",
			linalg.ErrShape, len(coef), support.Rows, len(dst), x.Rows)
	}
	nz := 0
	for _, c := range coef {
		if c != 0 {
			nz++
		}
	}
	if nz == 0 || x.Rows == 0 {
		return nil
	}
	// The gathered rows and their coefficients, the norms, the pack and the
	// dot panels all live in pooled scratch, so a scoring call per round
	// leaves no garbage behind but its closures.
	if nz < len(coef) {
		g, kept := linalg.GrabScratch(nz, support.Cols), linalg.GrabScratch(1, nz)
		defer linalg.ReleaseScratch(g)
		defer linalg.ReleaseScratch(kept)
		gatherNonzero(support, coef, g, kept.Data)
		support, coef = g, kept.Data
	}
	var sqX, sqS []float64
	if k.needNorms() {
		sq := linalg.GrabScratch(1, x.Rows+support.Rows)
		defer linalg.ReleaseScratch(sq)
		sqX, sqS = sq.Data[:x.Rows], sq.Data[x.Rows:]
		rowNormsInto(x, sqX)
		rowNormsInto(support, sqS)
	}
	ps := linalg.PackT(support)
	defer ps.Release()
	forPanels(x.Rows, parallel.UsePool(x.Rows*support.Rows*x.Cols), func(rlo, rhi int) {
		panel := dotPanel(x, ps, support.Rows, rlo, rhi)
		defer linalg.ReleaseScratch(panel)
		for i := rlo; i < rhi; i++ {
			row := panel.Row(i - rlo)
			k.rowForm(row, normAt(sqX, i), sqS)
			dst[i] += linalg.Dot(coef, row)
		}
	})
	return nil
}

// gatherNonzero copies the support rows whose coefficient is nonzero, in
// order, into the rows of dst (shaped nz × support.Cols) and their
// coefficients into kept (length nz).
func gatherNonzero(support *linalg.Matrix, coef []float64, dst *linalg.Matrix, kept []float64) {
	n := 0
	for j, c := range coef {
		if c != 0 {
			copy(dst.Row(n), support.Row(j))
			kept[n] = c
			n++
		}
	}
}

// gramTiled is matrixTiled specialized to the symmetric case: each panel
// covers only columns j ≥ rlo of its row block, row i is transformed from its
// diagonal on, and entries below the diagonal are mirrored rather than
// recomputed, halving both the dot and the transform work. A block writes
// rows [rlo, rhi) plus the mirrored cells out[j][i] for its columns —
// element-disjoint across blocks, exactly like the pre-tiling triangular row
// loops.
func gramTiled(k Kernel, a *linalg.Matrix, sq []float64, out *linalg.Matrix, par bool) {
	n := a.Rows
	pa := linalg.PackT(a)
	defer pa.Release()
	forPanels(n, par, func(rlo, rhi int) {
		panel := dotPanel(a, pa.From(rlo), n-rlo, rlo, rhi)
		defer linalg.ReleaseScratch(panel)
		for i := rlo; i < rhi; i++ {
			row := panel.Row(i - rlo)[i-rlo:] // columns j ≥ i
			var si float64
			var sj []float64
			if sq != nil {
				// On the diagonal the dot product is the squared norm by
				// definition; using sq[i] for both keeps the cancellation
				// exact, so K(x, x) = exp(−0) = 1 for RBF bit-for-bit,
				// independent of tile rounding.
				row[0], si, sj = sq[i], sq[i], sq[i:]
			}
			k.rowForm(row, si, sj)
			copy(out.Row(i)[i:], row)
			for j := i + 1; j < n; j++ {
				out.Data[j*n+i] = row[j-i]
			}
		}
	})
}

package kernel

import (
	"fmt"
	"sync"

	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/parallel"
)

// The tiled Gram path: every kernel is a pointwise function of the inner
// product ⟨x, y⟩ and, for RBF, the squared row norms (Kernel.dotForm), so
// kernel matrices factor into a dense a · bᵀ — computed with the register-tiled
// linalg kernel — followed by an elementwise transform. The dot panel for a
// block of rows is computed into a per-worker scratch arena claimed from
// panelPool and transformed into the output in place, so the full n×n dot
// matrix is never materialized and workers never share scratch. Accumulate,
// the scoring primitive, walks the same panels and reduces each against a
// coefficient vector, so it retains no kernel matrix at all.

// panelRows is the row height of a dot panel: tall enough that the tiled
// kernel runs at full width and the pool claim amortizes, short enough that
// a panel (panelRows × n doubles) stays modest even for large Gram sizes.
const panelRows = 32

// panelPool holds dot-panel scratch arenas. A worker grabs one panel when it
// claims a block and releases it when the block is done; panels are sized to
// the widest use and resliced per block.
var panelPool = sync.Pool{New: func() any { return new(linalg.Matrix) }}

func grabPanel(r, c int) *linalg.Matrix {
	p := panelPool.Get().(*linalg.Matrix)
	if cap(p.Data) < r*c {
		p.Data = make([]float64, r*c)
	}
	p.Rows, p.Cols = r, c
	p.Data = p.Data[:r*c]
	return p
}

func releasePanel(p *linalg.Matrix) { panelPool.Put(p) }

// rowView returns the submatrix of rows [rlo, rhi) of m as a view sharing
// m's storage.
func rowView(m *linalg.Matrix, rlo, rhi int) linalg.Matrix {
	return linalg.Matrix{Rows: rhi - rlo, Cols: m.Cols, Data: m.Data[rlo*m.Cols : rhi*m.Cols]}
}

// dotPanels walks a · bᵀ in panels of panelRows rows of a: each block claimed
// off the pool computes its dot panel into worker-local scratch and hands
// visit the panel (rows [rlo, rlo+panel.Rows) of a against every row of b)
// before the next one overwrites it. Panels cover disjoint rows of a, and
// the panel boundaries do not depend on the worker count.
func dotPanels(a, b *linalg.Matrix, par bool, visit func(rlo int, panel linalg.Matrix)) {
	n := b.Rows
	chunks := (a.Rows + panelRows - 1) / panelRows
	body := func(lo, hi int) {
		panel := grabPanel(panelRows, n)
		for c := lo; c < hi; c++ {
			rlo := c * panelRows
			rhi := min(rlo+panelRows, a.Rows)
			av := rowView(a, rlo, rhi)
			pv := linalg.Matrix{Rows: rhi - rlo, Cols: n, Data: panel.Data[:(rhi-rlo)*n]}
			linalg.MatMulTRows(&av, b, &pv, 0, rhi-rlo)
			visit(rlo, pv)
		}
		releasePanel(panel)
	}
	if par {
		parallel.For(chunks, 1, body)
		return
	}
	body(0, chunks)
}

// matrixTiled fills out[i][j] = f(⟨a_i, b_j⟩, sqA[i]+sqB[j]) panel by panel.
// sqA/sqB are nil when the transform ignores norms. Each panel is
// transformed into the disjoint output rows it owns.
func matrixTiled(f func(dot, sqSum float64) float64, a, b *linalg.Matrix, sqA, sqB []float64, out *linalg.Matrix, par bool) {
	dotPanels(a, b, par, func(rlo int, panel linalg.Matrix) {
		for r := 0; r < panel.Rows; r++ {
			prow := panel.Row(r)
			orow := out.Row(rlo + r)
			if sqA != nil {
				si := sqA[rlo+r]
				for j, d := range prow {
					orow[j] = f(d, si+sqB[j])
				}
				continue
			}
			for j, d := range prow {
				orow[j] = f(d, 0)
			}
		}
	})
}

// Accumulate adds the kernel expansion over support to dst:
//
//	dst[i] += Σ_j coef[j]·k(support_j, x_i)
//
// that is dst += K(x, support)·coef, without retaining the x.Rows ×
// support.Rows kernel matrix: each dot panel is reduced into the dst rows it
// owns as soon as it is computed. Support rows with a zero
// coefficient are gathered out first, and the remaining terms are summed in
// support order, so against the scalar Σ_j coef[j]·k.Eval(support_j, x_i)
// only the dot itself (tile kernel, and for RBF the norm expansion
// ‖x‖²+‖y‖²−2⟨x, y⟩ instead of the difference form) rounds differently. The
// per-row arithmetic is the same on the sequential and the parallel path, so
// the result does not depend on the worker count.
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
	if nz < len(coef) {
		// The gathered rows live in pooled scratch like the dot panels, so a
		// scoring call per round leaves no N × k garbage behind.
		g := grabPanel(nz, support.Cols)
		defer releasePanel(g)
		coef = gatherNonzero(support, coef, g)
		support = g
	}
	f, needNorms := k.dotForm()
	var sqX, sqS []float64
	if needNorms {
		sqX = rowNormsSq(x)
		sqS = rowNormsSq(support)
	}
	par := parallel.UsePool(x.Rows * support.Rows * x.Cols)
	dotPanels(x, support, par, func(rlo int, panel linalg.Matrix) {
		for r := 0; r < panel.Rows; r++ {
			prow := panel.Row(r)
			var s float64
			if sqX != nil {
				si := sqX[rlo+r]
				for j, d := range prow {
					s += coef[j] * f(d, si+sqS[j])
				}
			} else {
				for j, d := range prow {
					s += coef[j] * f(d, 0)
				}
			}
			dst[rlo+r] += s
		}
	})
	return nil
}

// gatherNonzero copies the support rows whose coefficient is nonzero, in
// order, into the first rows of dst (already shaped nz × support.Cols) and
// returns their coefficients.
func gatherNonzero(support *linalg.Matrix, coef []float64, dst *linalg.Matrix) []float64 {
	kept := make([]float64, 0, dst.Rows)
	for j, c := range coef {
		if c != 0 {
			copy(dst.Row(len(kept)), support.Row(j))
			kept = append(kept, c)
		}
	}
	return kept
}

// gramTiled is matrixTiled specialized to the symmetric case: each panel
// covers only columns j ≥ rlo of its row block, and entries below the
// diagonal are mirrored rather than recomputed, halving both the dot and the
// transform work. A block writes rows [rlo, rhi) plus the mirrored cells
// out[j][i] for its columns — element-disjoint across blocks, exactly like
// the pre-tiling triangular row loops.
func gramTiled(f func(dot, sqSum float64) float64, a *linalg.Matrix, sq []float64, out *linalg.Matrix, par bool) {
	n := a.Rows
	chunks := (n + panelRows - 1) / panelRows
	body := func(lo, hi int) {
		panel := grabPanel(panelRows, n)
		for c := lo; c < hi; c++ {
			rlo := c * panelRows
			rhi := min(rlo+panelRows, n)
			av := rowView(a, rlo, rhi)
			bv := rowView(a, rlo, n)
			pv := linalg.Matrix{Rows: rhi - rlo, Cols: n - rlo, Data: panel.Data[:(rhi-rlo)*(n-rlo)]}
			linalg.MatMulTRows(&av, &bv, &pv, 0, rhi-rlo)
			for i := rlo; i < rhi; i++ {
				prow := pv.Row(i - rlo)
				orow := out.Row(i)
				var si float64
				if sq != nil {
					si = sq[i]
				}
				for j := i; j < n; j++ {
					d := prow[j-rlo]
					var v float64
					if sq != nil {
						// On the diagonal the dot product is the squared
						// norm by definition; using sq[i] for both keeps the
						// cancellation exact, so K(x, x) = 1 for RBF
						// bit-for-bit, independent of tile rounding.
						if j == i {
							d = sq[i]
						}
						v = f(d, si+sq[j])
					} else {
						v = f(d, 0)
					}
					orow[j] = v
					out.Data[j*n+i] = v
				}
			}
		}
		releasePanel(panel)
	}
	if par {
		parallel.For(chunks, 1, body)
		return
	}
	body(0, chunks)
}

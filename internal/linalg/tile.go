package linalg

import "sync"

// Cache-blocked, register-tiled matrix kernels.
//
// The naive triple loops (the references in tile_test.go) touch three memory
// operands per multiply-add. The tiled kernels below compute the output in mr×nr register
// tiles instead: one tile holds mr·nr accumulators in registers while the
// shared k dimension streams through, so every loaded element of a and b is
// used mr (resp. nr) times before it leaves the register file. That cuts
// loads per multiply-add from 2–3 to 0.5 and gives the out-of-order core
// mr·nr independent accumulator chains, which is where the ≥2× single-core
// speedup over them comes from (Benchmark{Tiled,Naive}MatMul*).
//
// Numerical contract: each output element is still a plain sequential sum
// over k (one accumulator per element), so results are deterministic and
// independent of the worker count, but may differ from the naive path in the
// last ulp (the naive Dot folds four partial sums). Trained models agree to
// fixed-point tolerance; TestTiledMatchesNaive pins the bound.

// mr×nr is the register tile. 2×4 keeps the working set — 8 accumulators
// plus 6 operand values — inside the 16 SSE2 registers of amd64; a 4×4 tile
// measures *slower* than the naive loops because its 24 live values spill
// every accumulator update to the stack. Edge rows/columns fall back to
// scalar loops.
const (
	tileM = 2
	tileN = 4
)

// matMulTTile computes the 2×4 output tile out[r][c] = Σ_k a_r[k]·b_c[k]
// for two rows of a and four rows of b sharing length d. The rows are
// passed as slices so the compiler can hoist the bounds checks.
func matMulTTile(a0, a1, b0, b1, b2, b3 []float64, d int) (
	c00, c01, c02, c03,
	c10, c11, c12, c13 float64) {
	for k := 0; k < d; k++ {
		av0, av1 := a0[k], a1[k]
		bv0, bv1, bv2, bv3 := b0[k], b1[k], b2[k], b3[k]
		c00 += av0 * bv0
		c01 += av0 * bv1
		c02 += av0 * bv2
		c03 += av0 * bv3
		c10 += av1 * bv0
		c11 += av1 * bv1
		c12 += av1 * bv2
		c13 += av1 * bv3
	}
	return
}

// dotSeq is a single-accumulator dot product over exactly d elements. The
// tile edges use it so every output element — tiled interior or scalar edge —
// is the same sequential sum over k.
func dotSeq(x, y []float64, d int) float64 {
	var s float64
	for k := 0; k < d; k++ {
		s += x[k] * y[k]
	}
	return s
}

// matMulTTiledRows computes out rows [rlo, rhi) of out = a · bᵀ with the
// register-tiled kernel. It is the shared worker body: the sequential path
// calls it once with the full row range, the pool calls it per claimed block.
// On amd64 with AVX2+FMA the tile body is the dotTile2x4FMA microkernel;
// elsewhere the pure-Go tile computes the same sums.
func matMulTTiledRows(a, b, out *Matrix, rlo, rhi int) {
	d := a.Cols
	n := b.Rows
	if d == 0 {
		for i := rlo; i < rhi; i++ {
			row := out.Row(i)
			for j := range row {
				row[j] = 0
			}
		}
		return
	}
	fma := hasFMA
	i := rlo
	for ; i+tileM <= rhi; i += tileM {
		a0, a1 := a.Row(i), a.Row(i+1)
		o0, o1 := out.Row(i), out.Row(i+1)
		j := 0
		for ; j+tileN <= n; j += tileN {
			if fma {
				var c [8]float64
				dotTile2x4FMA(&a0[0], &a1[0],
					&b.Data[j*d], &b.Data[(j+1)*d], &b.Data[(j+2)*d], &b.Data[(j+3)*d],
					d, &c)
				o0[j], o0[j+1], o0[j+2], o0[j+3] = c[0], c[1], c[2], c[3]
				o1[j], o1[j+1], o1[j+2], o1[j+3] = c[4], c[5], c[6], c[7]
				continue
			}
			c00, c01, c02, c03,
				c10, c11, c12, c13 := matMulTTile(
				a0, a1,
				b.Row(j), b.Row(j+1), b.Row(j+2), b.Row(j+3), d)
			o0[j], o0[j+1], o0[j+2], o0[j+3] = c00, c01, c02, c03
			o1[j], o1[j+1], o1[j+2], o1[j+3] = c10, c11, c12, c13
		}
		for ; j < n; j++ {
			bj := b.Row(j)
			if fma {
				o0[j] = dotFMA(&a0[0], &bj[0], d)
				o1[j] = dotFMA(&a1[0], &bj[0], d)
				continue
			}
			o0[j] = dotSeq(a0, bj, d)
			o1[j] = dotSeq(a1, bj, d)
		}
	}
	for ; i < rhi; i++ {
		ai := a.Row(i)
		oi := out.Row(i)
		for j := 0; j < n; j++ {
			bj := b.Row(j)
			if fma {
				oi[j] = dotFMA(&ai[0], &bj[0], d)
				continue
			}
			oi[j] = dotSeq(ai, bj, d)
		}
	}
}

// packPool holds transpose-pack scratch matrices for MatMulInto. MatMul(a, b)
// runs as transpose(b) followed by the a · bᵀᵀ tile kernel: the packed
// operand makes every tile operand contiguous (unit-stride vector loads),
// and the pack cost is O(d·n) against the O(r·d·n) multiply. The arena is
// per-call — grabbed before the worker fan-out, every worker reads it, and
// it is released after the barrier — so pooled buffers are never shared
// across concurrent top-level calls.
var packPool = sync.Pool{New: func() any { return new(Matrix) }}

// grabPacked returns a pooled r×c scratch matrix whose contents are
// unspecified (every element is overwritten by transposeInto).
func grabPacked(r, c int) *Matrix {
	m := packPool.Get().(*Matrix)
	if cap(m.Data) < r*c {
		m.Data = make([]float64, r*c)
	}
	m.Rows, m.Cols = r, c
	m.Data = m.Data[:r*c]
	return m
}

// releasePacked returns a scratch matrix to the pool.
func releasePacked(m *Matrix) { packPool.Put(m) }

// transposeInto writes mᵀ into out (shapes already agreed by the caller).
func transposeInto(m, out *Matrix) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
}

// mulVecTiledRows computes dst[rlo:rhi] of dst = m · x: the vectorized dot
// kernel per row when available, else tileM rows at a time so each loaded x
// element serves tileM accumulators.
func mulVecTiledRows(m *Matrix, x, dst []float64, rlo, rhi int) {
	d := m.Cols
	if d == 0 {
		for i := rlo; i < rhi; i++ {
			dst[i] = 0
		}
		return
	}
	if hasFMA {
		xp := &x[0]
		for i := rlo; i < rhi; i++ {
			dst[i] = dotFMA(&m.Data[i*d], xp, d)
		}
		return
	}
	i := rlo
	for ; i+tileM <= rhi; i += tileM {
		a0, a1 := m.Row(i), m.Row(i+1)
		var s0, s1 float64
		for k := 0; k < d; k++ {
			xv := x[k]
			s0 += a0[k] * xv
			s1 += a1[k] * xv
		}
		dst[i], dst[i+1] = s0, s1
	}
	for ; i < rhi; i++ {
		dst[i] = dotSeq(m.Row(i), x, d)
	}
}

// tileRowGrain sizes a parallel.For grain in row tiles for a tiled loop of
// tileWork multiply-adds per row tile: one tile per block when tiles are
// already expensive, more when cheap, mirroring parallel.RowGrain.
func tileRowGrain(tileWork int) int {
	if tileWork >= 4096 {
		return 1
	}
	return 1 + 4096/(tileWork+1)
}

// tileRange converts a claimed block of row tiles back to a row range,
// clamping the final partial tile.
func tileRange(lo, hi, rows int) (rlo, rhi int) {
	rlo = lo * tileM
	rhi = hi * tileM
	if rhi > rows {
		rhi = rows
	}
	return rlo, rhi
}

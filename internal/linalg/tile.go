package linalg

import (
	"math"
	"sync"
)

// The register-tiled a·bᵀ kernel: MatMul, MatMulT, the kernel package's Gram
// panels and the blocked Cholesky's panel update all run on it.
//
// It is the outer-product form of Goto and van de Geijn ("Anatomy of
// High-Performance Matrix Multiplication", TOMS 2008). The right operand is
// packed once per call (Packed): its rows, the output columns, in panels of
// tileN, each panel k-major, so one k step of a panel is two 4-lane loads. A
// tile keeps tileM×tileN outputs in registers, 4 to an accumulator; each k
// step broadcasts one element of each of its tileM rows of a and fuses it
// into that row's two accumulators. A lane is an output, so nothing is folded
// across lanes, and the naive loops' 2–3 loads per multiply-add become 8
// vector loads per 48.
//
// Numerical contract: every output, interior or edge, is the one FMA chain
// s = fma(a[k], b[k], s) over k from 0, s starting at 0. The AVX-512 body
// (tileAVX512, two panels a pass), the AVX2 body (tileFMA) and their Go twin
// (tileGo, math.FMA) compute exactly that, so an output's bits depend on
// neither the tile shape, its place in a tile, the worker count, hasFMA,
// hasAVX512 nor the platform (TestTiledFallbackMatchesFMA). Against
// the naive loops, which round every product or fold Dot's 16 lane chains,
// results differ in the last bits; TestTiledMatchesNaive pins the bound.

// tileM×tileN is the register tile. 6×8 takes 12 of the 16 ymm registers for
// accumulators, two for the b vectors and two for the broadcasts: 8 loads
// per k step for 12 FMAs, and 12 chains in flight. 4×8 takes 6 loads for 8
// FMAs and keeps only the 8 chains that two FMA ports of four-cycle latency
// need, and measures slower at long k. A tile with fewer rows repeats its
// last row, which computes the same chains and stores the same values over
// them; the last panel is zero-padded, and its tile goes to a stack buffer
// from which the real columns are copied.
const (
	tileM = 6
	tileN = 8
)

// scratchPool holds the compute layer's float64 scratch: the tile's packs
// and the kernel package's dot panels. One pool for both lets a buffer one of
// them put back serve the other, and a collection, which empties every pool,
// costs one refill, not two.
var scratchPool = sync.Pool{New: func() any { return new(Matrix) }}

// GrabScratch returns a pooled r×c matrix with unspecified contents. The
// caller hands it back with ReleaseScratch once nothing refers to it.
func GrabScratch(r, c int) *Matrix {
	m := scratchPool.Get().(*Matrix)
	if cap(m.Data) < r*c {
		m.Data = make([]float64, r*c)
	}
	m.Rows, m.Cols, m.Data = r, c, m.Data[:r*c]
	return m
}

// ReleaseScratch returns m to the pool; m must not be used afterwards.
func ReleaseScratch(m *Matrix) { scratchPool.Put(m) }

// Packed is the right operand of a·bᵀ laid out for the tile: the n rows of b
// (the output columns) in panels of tileN, each panel k-major (the tileN
// entries of one k side by side) and the last one zero-padded, in pooled
// scratch. PackT makes one before a call's worker fan-out; every worker reads
// it, and Release hands the scratch back after the barrier, so a pack is never
// shared across concurrent calls. It is a value: passing it copies a header.
type Packed struct {
	n, k int
	data []float64
	buf  *Matrix // the scratch data lives in
}

// grabPacked returns a pack in pooled scratch shaped for n columns of length
// k. Its contents are unspecified: packRows/packCols overwrite every element.
func grabPacked(n, k int) Packed {
	p := Packed{buf: GrabScratch(1, packedLen(n, k))}
	p.reshape(n, k)
	return p
}

// reshape shapes p for n columns of length k inside the scratch it was
// grabbed with, which must be large enough.
func (p *Packed) reshape(n, k int) {
	p.n, p.k, p.data = n, k, p.buf.Data[:packedLen(n, k)]
}

// packedLen is the length of a pack of n columns of length k.
func packedLen(n, k int) int { return (n + tileN - 1) / tileN * tileN * k }

// PackT packs the rows of b as the right operand of a·bᵀ.
func PackT(b *Matrix) Packed {
	p := grabPacked(b.Rows, b.Cols)
	p.packRows(b.Data, b.Cols)
	return p
}

// Release hands p's scratch back to the pool; neither p nor a view of it may
// be used afterwards.
func (p Packed) Release() { ReleaseScratch(p.buf) }

// From returns the view of p holding its columns [j, n); j must be a multiple
// of the panel width 8.
func (p Packed) From(j int) Packed {
	if j%tileN != 0 {
		panic("linalg: Packed.From off a panel boundary")
	}
	p.n, p.data = p.n-j, p.data[j*p.k:]
	return p
}

// packRows packs column j of the output from src[j*ld:][:k]. It walks k
// outermost, so the pack is written front to back from one read stream per
// column of the panel.
func (p *Packed) packRows(src []float64, ld int) {
	k := p.k
	for j0 := 0; j0 < p.n; j0 += tileN {
		panel := p.data[j0*k : (j0+tileN)*k]
		if cols := p.n - j0; cols < tileN {
			var rows [tileN][]float64
			for c := 0; c < cols; c++ {
				rows[c] = src[(j0+c)*ld:][:k]
			}
			for kk := 0; kk < k; kk++ {
				dst := panel[kk*tileN : (kk+1)*tileN]
				for c := 0; c < cols; c++ {
					dst[c] = rows[c][kk]
				}
				clear(dst[cols:])
			}
			continue
		}
		r0, r1, r2, r3 := src[j0*ld:][:k], src[(j0+1)*ld:][:k], src[(j0+2)*ld:][:k], src[(j0+3)*ld:][:k]
		r4, r5, r6, r7 := src[(j0+4)*ld:][:k], src[(j0+5)*ld:][:k], src[(j0+6)*ld:][:k], src[(j0+7)*ld:][:k]
		for kk := range r0 {
			dst := panel[kk*tileN : (kk+1)*tileN]
			dst[0], dst[1], dst[2], dst[3] = r0[kk], r1[kk], r2[kk], r3[kk]
			dst[4], dst[5], dst[6], dst[7] = r4[kk], r5[kk], r6[kk], r7[kk]
		}
	}
}

// packCols packs column j of the output from src[kk*ld+j], kk < k: a
// row-major k × n b of a·b, whose rows are already k-major, a strip copy.
func (p *Packed) packCols(src []float64, ld int) {
	for kk := 0; kk < p.k; kk++ {
		row := src[kk*ld:][:p.n]
		for j0 := 0; j0 < p.n; j0 += tileN {
			dst := p.data[j0*p.k+kk*tileN:][:tileN]
			clear(dst[copy(dst, row[j0:]):])
		}
	}
}

// tileGo is tileFMA's Go twin: out[r][8p+c] = the FMA chain over kk < k of
// a[r][kk]·b[p·8k + 8kk + c], for every row r and the panels p < panels.
func tileGo(a, out *[tileM][]float64, b []float64, k, panels int) {
	for p := 0; p < panels; p++ {
		bp := b[p*tileN*k : (p+1)*tileN*k]
		for r := range a {
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			for kk, av := range a[r][:k] {
				bk := bp[kk*tileN : (kk+1)*tileN]
				s0 = math.FMA(av, bk[0], s0)
				s1 = math.FMA(av, bk[1], s1)
				s2 = math.FMA(av, bk[2], s2)
				s3 = math.FMA(av, bk[3], s3)
				s4 = math.FMA(av, bk[4], s4)
				s5 = math.FMA(av, bk[5], s5)
				s6 = math.FMA(av, bk[6], s6)
				s7 = math.FMA(av, bk[7], s7)
			}
			o := out[r][p*tileN : (p+1)*tileN]
			o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0, s1, s2, s3, s4, s5, s6, s7
		}
	}
}

// tileRows sets out_i[j] = Σ_kk a_i[kk]·b_j[kk], each one FMA chain, for the
// rows i ∈ [rlo, rhi) of a — row i is a[i*lda:][:b.k] — and every column
// j < b.n; out_i is out[(i-rlo)*ldo:][:b.n]. It is the shared worker body:
// the sequential paths call it once with the full row range, the pool per
// claimed block.
func tileRows(a []float64, lda int, b Packed, out []float64, ldo, rlo, rhi int) {
	k, full, edge := b.k, b.n/tileN, b.n%tileN
	if k == 0 {
		for i := rlo; i < rhi; i++ {
			clear(out[(i-rlo)*ldo:][:b.n])
		}
		return
	}
	fma, avx512 := hasFMA, hasFMA && hasAVX512
	for i := rlo; i < rhi; i += tileM {
		var ar, or [tileM][]float64
		for r := range ar {
			row := min(i+r, rhi-1)
			ar[r] = a[row*lda:][:k]
			or[r] = out[(row-rlo)*ldo:][:b.n]
		}
		if full > 0 {
			switch {
			case avx512:
				tileAVX512(&ar, &or, b.data, k, full)
			case fma:
				tileFMA(&ar, &or, b.data, k, full)
			default:
				tileGo(&ar, &or, b.data, k, full)
			}
		}
		if edge > 0 {
			var buf [tileM * tileN]float64
			var er [tileM][]float64
			for r := range er {
				er[r] = buf[r*tileN : (r+1)*tileN]
			}
			last := b.data[full*tileN*k:]
			switch {
			case avx512:
				tileAVX512(&ar, &er, last, k, 1)
			case fma:
				tileFMA(&ar, &er, last, k, 1)
			default:
				tileGo(&ar, &er, last, k, 1)
			}
			for r := range or {
				copy(or[r][full*tileN:], er[r][:edge])
			}
		}
	}
}

// mulVecRows computes dst[rlo:rhi] of dst = m · x, one Dot per row.
func mulVecRows(m *Matrix, x, dst []float64, rlo, rhi int) {
	for i := rlo; i < rhi; i++ {
		dst[i] = Dot(m.Row(i), x)
	}
}

// tileRowGrain sizes a parallel.For grain in row tiles (or rows, for MulVec)
// for a loop of tileWork multiply-adds per tile: one tile per block when
// tiles are already expensive, more when cheap, mirroring parallel.RowGrain.
func tileRowGrain(tileWork int) int {
	if tileWork >= 4096 {
		return 1
	}
	return 1 + 4096/(tileWork+1)
}

// tileRange converts a claimed block of row tiles back to a row range,
// clamping the final partial tile.
func tileRange(lo, hi, rows int) (rlo, rhi int) {
	return lo * tileM, min(hi*tileM, rows)
}

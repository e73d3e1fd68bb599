// Out-of-core row streaming: a fixed-width binary row format stored in
// internal/dfs, a RowSource abstraction over "give me rows [lo,hi)", and a
// double-buffered Prefetcher that decodes chunk k+1 while the solver works
// on chunk k. This is what lets a mapper train on a partition that does not
// fit in its memory budget: the only per-mapper state is two chunk buffers
// plus one dfs block's worth of encoded bytes. A Prefetcher over an
// in-memory source hands out views of the rows instead: no buffers, no
// reader, no copy.
//
// Privacy posture: streamed rows are dataset rows. The secretflow analyzer
// taints every dfs read (DESIGN.md §13/§15), so bytes decoded here carry the
// same dataset taint as in-memory partitions and may only leave a node
// through the sanctioned masking/encryption routines.
package dataset

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/ppml-go/ppml/internal/dfs"
	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/telemetry"
)

// Row-file layout: an 16-byte header (8-byte magic, uint32 rows, uint32
// features, little endian) followed by rows × (features+1) float64 values,
// each row stored label-first. Fixed width means row i lives at a computable
// byte offset, which is what makes dfs range reads sufficient for random
// chunk access.
const (
	rowsMagic      = "PPMLROW1"
	rowsHeaderSize = 16
)

// Prefetcher telemetry series.
const (
	metricPrefetchHits   = "ppml_prefetch_hits_total"
	metricPrefetchMisses = "ppml_prefetch_misses_total"
)

// rowBytes is the encoded width of one sample with k features.
func rowBytes(k int) int64 { return int64(k+1) * 8 }

// EncodeRows serializes d into the streaming row format.
func EncodeRows(d *Dataset) []byte {
	n, k := d.Len(), d.Features()
	out := make([]byte, rowsHeaderSize+int(rowBytes(k))*n)
	copy(out, rowsMagic)
	binary.LittleEndian.PutUint32(out[8:], uint32(n))
	binary.LittleEndian.PutUint32(out[12:], uint32(k))
	off := rowsHeaderSize
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(out[off:], math.Float64bits(d.Y[i]))
		off += 8
		for _, v := range d.X.Row(i) {
			binary.LittleEndian.PutUint64(out[off:], math.Float64bits(v))
			off += 8
		}
	}
	return out
}

// WriteDFS stores d at path on the cluster in the streaming row format,
// preferring the named node for first replicas (write locality: a learner's
// partition lands on the learner's own data node).
func WriteDFS(c *dfs.Cluster, path string, d *Dataset, preferred string) error {
	return c.Write(path, EncodeRows(d), preferred)
}

// RowSource yields ranges of labeled rows. Implementations are not required
// to be safe for concurrent ReadRows calls — the Prefetcher serializes all
// access through its single background reader.
type RowSource interface {
	// Rows is the total sample count.
	Rows() int
	// Features is the feature dimension.
	Features() int
	// ReadRows copies rows [lo, hi) into the first hi−lo rows of x and the
	// first hi−lo entries of y. x must have at least hi−lo rows of exactly
	// Features() columns.
	ReadRows(lo, hi int, x *linalg.Matrix, y []float64) error
}

// memorySource adapts an in-memory Dataset to RowSource. It is one pointer
// wide, so boxing it in the interface allocates nothing.
type memorySource struct{ d *Dataset }

// NewMemorySource wraps an in-memory data set as a RowSource, so the chunked
// solvers run identically whether rows come from RAM or from dfs blocks. A
// Prefetcher recognises it and serves its chunks as zero-copy row views.
func NewMemorySource(d *Dataset) RowSource { return memorySource{d: d} }

func (s memorySource) Rows() int     { return s.d.Len() }
func (s memorySource) Features() int { return s.d.Features() }

func (s memorySource) ReadRows(lo, hi int, x *linalg.Matrix, y []float64) error {
	if err := checkRange(lo, hi, s.d.Len()); err != nil {
		return err
	}
	for i := lo; i < hi; i++ {
		copy(x.Row(i-lo), s.d.X.Row(i))
		y[i-lo] = s.d.Y[i]
	}
	return nil
}

// DFSSource streams rows of a row-format file from a dfs cluster. Each
// ReadRows issues one checksum-verified range read into a reused byte buffer
// and decodes in place, so steady-state reads do not allocate. Not safe for
// concurrent use; wrap it in a Prefetcher for overlap.
type DFSSource struct {
	c    *dfs.Cluster
	path string
	rows int
	k    int
	buf  []byte
}

// OpenDFS validates the header of the row-format file at path and returns a
// streaming source over it.
func OpenDFS(c *dfs.Cluster, path string) (*DFSSource, error) {
	var hdr [rowsHeaderSize]byte
	n, err := c.ReadAt(path, 0, hdr[:])
	if err != nil {
		return nil, err
	}
	if n < rowsHeaderSize || string(hdr[:8]) != rowsMagic {
		return nil, fmt.Errorf("%w: %q is not a ppml row file", ErrBadData, path)
	}
	rows := int(binary.LittleEndian.Uint32(hdr[8:]))
	k := int(binary.LittleEndian.Uint32(hdr[12:]))
	size, err := c.FileSize(path)
	if err != nil {
		return nil, err
	}
	if k < 1 || int64(size) != rowsHeaderSize+int64(rows)*rowBytes(k) {
		return nil, fmt.Errorf("%w: %q header (%d rows × %d features) disagrees with size %d",
			ErrBadData, path, rows, k, size)
	}
	return &DFSSource{c: c, path: path, rows: rows, k: k}, nil
}

func (s *DFSSource) Rows() int     { return s.rows }
func (s *DFSSource) Features() int { return s.k }

func (s *DFSSource) ReadRows(lo, hi int, x *linalg.Matrix, y []float64) error {
	if err := checkRange(lo, hi, s.rows); err != nil {
		return err
	}
	want := int(rowBytes(s.k)) * (hi - lo)
	if cap(s.buf) < want {
		s.buf = make([]byte, want)
	}
	buf := s.buf[:want]
	n, err := s.c.ReadAt(s.path, rowsHeaderSize+int64(lo)*rowBytes(s.k), buf)
	if err != nil {
		return err
	}
	if n != want {
		return fmt.Errorf("%w: short read of %q rows [%d,%d): %d of %d bytes",
			ErrBadData, s.path, lo, hi, n, want)
	}
	off := 0
	for i := 0; i < hi-lo; i++ {
		y[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
		row := x.Row(i)
		for j := range row {
			row[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
	}
	return nil
}

func checkRange(lo, hi, rows int) error {
	if lo < 0 || hi < lo || hi > rows {
		return fmt.Errorf("%w: row range [%d,%d) of %d", ErrBadData, lo, hi, rows)
	}
	return nil
}

// Chunk is one row range. Lo/Hi are the absolute row bounds; X holds the
// Hi−Lo rows and Y the matching labels. X and the backing buffers belong to
// the Prefetcher and are recycled two Fetch calls later.
type Chunk struct {
	Lo, Hi int
	X      *linalg.Matrix
	Y      []float64
}

// fetchReq asks the background reader to decode chunk idx into buffer buf.
type fetchReq struct{ idx, buf int }

type fetchRes struct {
	idx, buf int
	err      error
}

// Prefetcher overlaps row decoding with compute: while the solver works on
// the chunk returned by Fetch, Prefetch(next) decodes the following chunk
// into the other of two buffers on a background goroutine. The chunk
// schedule is deterministic (a seeded permutation), so the caller always
// knows which chunk it needs next and a prefetch hit costs only a channel
// receive. Fetch/Prefetch must be called from a single goroutine; the hit
// and miss counters are the `ppml_prefetch_*_total` series.
//
// Over a NewMemorySource there is nothing to decode or overlap: Fetch
// returns views into the data set's own storage, Prefetch and Close do
// nothing, no reader goroutine runs and neither counter moves.
type Prefetcher struct {
	src       RowSource
	mem       *Dataset // non-nil for an in-memory source: chunks are views of it
	chunkRows int
	chunks    int

	req chan fetchReq
	res chan fetchRes

	x [2]*linalg.Matrix
	y [2][]float64
	// view[b] is the header Chunk.X points at for buffer b, so a Fetch
	// allocates nothing.
	view [2]linalg.Matrix

	nextBuf int
	pending int // outstanding prefetch chunk index, −1 when idle

	hits   *telemetry.Counter
	misses *telemetry.Counter
}

// NewPrefetcher builds a double-buffered reader over src with the given
// chunk size. A nil registry disables the hit/miss counters.
func NewPrefetcher(src RowSource, chunkRows int, reg *telemetry.Registry) (*Prefetcher, error) {
	if chunkRows < 1 || src.Rows() < 1 {
		return nil, fmt.Errorf("%w: prefetcher needs rows and a positive chunk size", ErrBadData)
	}
	p := &Prefetcher{
		src:       src,
		chunkRows: chunkRows,
		chunks:    (src.Rows() + chunkRows - 1) / chunkRows,
		pending:   -1,
	}
	if ms, ok := src.(memorySource); ok {
		p.mem = ms.d
		return p, nil
	}
	p.req = make(chan fetchReq)
	p.res = make(chan fetchRes, 1)
	for b := 0; b < 2; b++ {
		p.x[b] = linalg.NewMatrix(chunkRows, src.Features())
		p.y[b] = make([]float64, chunkRows)
	}
	if reg != nil {
		p.hits = reg.Counter(metricPrefetchHits)
		p.misses = reg.Counter(metricPrefetchMisses)
	}
	go p.reader()
	return p, nil
}

// Chunks returns the number of chunks the source divides into.
func (p *Prefetcher) Chunks() int { return p.chunks }

func (p *Prefetcher) bounds(idx int) (lo, hi int) {
	lo = idx * p.chunkRows
	hi = lo + p.chunkRows
	if hi > p.src.Rows() {
		hi = p.src.Rows()
	}
	return lo, hi
}

// reader is the single background goroutine touching the RowSource.
func (p *Prefetcher) reader() {
	for r := range p.req {
		lo, hi := p.bounds(r.idx)
		err := p.src.ReadRows(lo, hi, p.x[r.buf], p.y[r.buf])
		p.res <- fetchRes{idx: r.idx, buf: r.buf, err: err}
	}
}

// Fetch returns chunk idx, waiting for an in-flight prefetch when it matches
// (a hit) and reading synchronously otherwise (a miss). The returned Chunk's
// buffers stay valid until the second Fetch after this one.
func (p *Prefetcher) Fetch(idx int) (Chunk, error) {
	if idx < 0 || idx >= p.chunks {
		return Chunk{}, fmt.Errorf("%w: chunk %d of %d", ErrBadData, idx, p.chunks)
	}
	if p.mem != nil {
		b := p.nextBuf
		p.nextBuf ^= 1
		lo, hi := p.bounds(idx)
		k := p.mem.X.Cols
		return p.chunk(b, lo, hi, p.mem.X.Data[lo*k:hi*k], p.mem.Y[lo:hi]), nil
	}
	if p.pending >= 0 {
		r := <-p.res
		p.pending = -1
		if r.idx == idx {
			p.hits.Inc()
			return p.chunkFrom(r)
		}
		// The schedule asked for a different chunk than was predicted; the
		// completed prefetch is discarded and its buffer recycled below.
	}
	p.misses.Inc()
	b := p.nextBuf
	p.nextBuf ^= 1
	p.req <- fetchReq{idx: idx, buf: b}
	return p.chunkFrom(<-p.res)
}

// Prefetch starts decoding chunk idx in the background. At most one prefetch
// is outstanding; extra hints and out-of-range indices are ignored.
func (p *Prefetcher) Prefetch(idx int) {
	if p.mem != nil || p.pending >= 0 || idx < 0 || idx >= p.chunks {
		return
	}
	b := p.nextBuf
	p.nextBuf ^= 1
	p.pending = idx
	p.req <- fetchReq{idx: idx, buf: b}
}

func (p *Prefetcher) chunkFrom(r fetchRes) (Chunk, error) {
	if r.err != nil {
		return Chunk{}, r.err
	}
	lo, hi := p.bounds(r.idx)
	x := p.x[r.buf]
	return p.chunk(r.buf, lo, hi, x.Data[:(hi-lo)*x.Cols], p.y[r.buf][:hi-lo]), nil
}

// chunk describes rows [lo, hi) held in x and y through buffer b's header.
func (p *Prefetcher) chunk(b, lo, hi int, x, y []float64) Chunk {
	p.view[b] = linalg.Matrix{Rows: hi - lo, Cols: p.src.Features(), Data: x}
	return Chunk{Lo: lo, Hi: hi, X: &p.view[b], Y: y}
}

// Close stops the background reader. The Prefetcher must not be used after.
func (p *Prefetcher) Close() {
	if p.mem != nil {
		return
	}
	if p.pending >= 0 {
		<-p.res
		p.pending = -1
	}
	close(p.req)
}

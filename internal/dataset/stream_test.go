package dataset

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/ppml-go/ppml/internal/dfs"
	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/telemetry"
)

// streamDataset builds a small deterministic labeled set.
func streamDataset(t *testing.T, n, k int, seed int64) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := linalg.NewMatrix(n, k)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
		if rng.Intn(2) == 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	d, err := New("stream", x, y)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func streamCluster(t *testing.T, blockSize int) *dfs.Cluster {
	t.Helper()
	c, err := dfs.NewCluster(dfs.WithBlockSize(blockSize))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"n0", "n1"} {
		if err := c.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// streamSource stores d in a fresh cluster and opens it for range reads: the
// copying source the Prefetcher's double buffer exists for.
func streamSource(t *testing.T, d *Dataset) *DFSSource {
	t.Helper()
	c := streamCluster(t, 1024)
	if err := WriteDFS(c, "/rows", d, "n0"); err != nil {
		t.Fatal(err)
	}
	src, err := OpenDFS(c, "/rows")
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestDFSSourceRoundTrip: rows written in the streaming format and read back
// through range reads are bit-identical to the in-memory source, for every
// chunk geometry including ones that straddle dfs block boundaries.
func TestDFSSourceRoundTrip(t *testing.T) {
	d := streamDataset(t, 103, 7, 1)
	c := streamCluster(t, 256) // each block holds exactly 4 rows: plenty of straddling
	if err := WriteDFS(c, "/rows", d, "n0"); err != nil {
		t.Fatal(err)
	}
	src, err := OpenDFS(c, "/rows")
	if err != nil {
		t.Fatal(err)
	}
	if src.Rows() != d.Len() || src.Features() != d.Features() {
		t.Fatalf("source is %d×%d, want %d×%d", src.Rows(), src.Features(), d.Len(), d.Features())
	}
	mem := NewMemorySource(d)
	for _, span := range []int{1, 3, 10, 103} {
		got := linalg.NewMatrix(span, d.Features())
		want := linalg.NewMatrix(span, d.Features())
		gy := make([]float64, span)
		wy := make([]float64, span)
		for lo := 0; lo < d.Len(); lo += span {
			hi := lo + span
			if hi > d.Len() {
				hi = d.Len()
			}
			if err := src.ReadRows(lo, hi, got, gy); err != nil {
				t.Fatal(err)
			}
			if err := mem.ReadRows(lo, hi, want, wy); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < hi-lo; i++ {
				if gy[i] != wy[i] {
					t.Fatalf("span %d: label %d differs", span, lo+i)
				}
				for j := 0; j < d.Features(); j++ {
					if got.At(i, j) != want.At(i, j) {
						t.Fatalf("span %d: value (%d,%d) differs", span, lo+i, j)
					}
				}
			}
		}
	}
	if err := src.ReadRows(100, 104, linalg.NewMatrix(4, 7), make([]float64, 4)); !errors.Is(err, ErrBadData) {
		t.Errorf("out-of-range read: err = %v, want ErrBadData", err)
	}
}

// TestOpenDFSRejectsCorruptHeaders: a non-row file and a header whose row
// count disagrees with the file size must both fail fast.
func TestOpenDFSRejectsCorruptHeaders(t *testing.T) {
	c := streamCluster(t, 1024)
	if err := c.Write("/junk", []byte("definitely not a row file"), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDFS(c, "/junk"); !errors.Is(err, ErrBadData) {
		t.Errorf("junk file: err = %v, want ErrBadData", err)
	}
	d := streamDataset(t, 10, 3, 2)
	enc := EncodeRows(d)
	if err := c.Write("/trunc", enc[:len(enc)-8], ""); err != nil { // one value short
		t.Fatal(err)
	}
	if _, err := OpenDFS(c, "/trunc"); !errors.Is(err, ErrBadData) {
		t.Errorf("truncated file: err = %v, want ErrBadData", err)
	}
	if _, err := OpenDFS(c, "/absent"); err == nil {
		t.Error("missing file: want error")
	}
}

// prefetchCounts reads the hit/miss counters back out of the registry.
func prefetchCounts(reg *telemetry.Registry) (hits, misses int64) {
	snap := reg.Snapshot()
	return snap.CounterTotal(metricPrefetchHits), snap.CounterTotal(metricPrefetchMisses)
}

// TestPrefetcherHitsAndMisses pins the telemetry contract: a correctly hinted
// walk is all hits after the cold first fetch, an unhinted walk is all
// misses, and a wrong hint costs a miss (the speculative chunk is discarded).
func TestPrefetcherHitsAndMisses(t *testing.T) {
	d := streamDataset(t, 60, 4, 3)
	reg := telemetry.NewRegistry()
	pf, err := NewPrefetcher(streamSource(t, d), 16, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	if pf.Chunks() != 4 {
		t.Fatalf("Chunks() = %d, want 4", pf.Chunks())
	}

	// Hinted epoch: fetch k, hint k+1 — everything after the cold miss hits.
	for idx := 0; idx < pf.Chunks(); idx++ {
		ch, err := pf.Fetch(idx)
		if err != nil {
			t.Fatal(err)
		}
		if ch.Lo != idx*16 {
			t.Fatalf("chunk %d starts at %d", idx, ch.Lo)
		}
		pf.Prefetch(idx + 1) // out-of-range final hint is ignored
	}
	hits, misses := prefetchCounts(reg)
	if hits != 3 || misses != 1 {
		t.Errorf("hinted epoch: hits=%d misses=%d, want 3 and 1", hits, misses)
	}

	// Unhinted epoch: every fetch is a synchronous miss.
	for idx := 0; idx < pf.Chunks(); idx++ {
		if _, err := pf.Fetch(idx); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses = prefetchCounts(reg)
	if hits != 3 || misses != 5 {
		t.Errorf("after unhinted epoch: hits=%d misses=%d, want 3 and 5", hits, misses)
	}

	// Wrong hint: the prediction is discarded and the fetch is a miss.
	pf.Prefetch(0)
	if _, err := pf.Fetch(2); err != nil {
		t.Fatal(err)
	}
	hits, misses = prefetchCounts(reg)
	if hits != 3 || misses != 6 {
		t.Errorf("after wrong hint: hits=%d misses=%d, want 3 and 6", hits, misses)
	}
}

// TestPrefetcherBufferLifetime: a fetched chunk's buffers must stay intact
// through the NEXT fetch (the double-buffer guarantee the solver relies on:
// it still reads chunk k while chunk k+1 decodes) and are only recycled by
// the one after.
func TestPrefetcherBufferLifetime(t *testing.T) {
	d := streamDataset(t, 48, 3, 5)
	pf, err := NewPrefetcher(streamSource(t, d), 16, nil) // nil registry: counters off
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	first, err := pf.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	want0 := append([]float64(nil), first.Y...)
	second, err := pf.Fetch(1)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range first.Y {
		if v != want0[i] {
			t.Fatalf("chunk 0 label %d clobbered by the next fetch", i)
		}
	}
	if &first.Y[0] == &second.Y[0] {
		t.Fatal("consecutive fetches share a buffer")
	}
	third, err := pf.Fetch(2)
	if err != nil {
		t.Fatal(err)
	}
	if &third.Y[0] != &first.Y[0] {
		t.Error("third fetch did not recycle the first buffer (double buffering broken)")
	}
}

// TestPrefetcherCloseWithPendingHint: Close while a speculative read is in
// flight must drain it rather than deadlock or leak the reader goroutine.
func TestPrefetcherCloseWithPendingHint(t *testing.T) {
	d := streamDataset(t, 32, 2, 7)
	pf, err := NewPrefetcher(streamSource(t, d), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pf.Fetch(0); err != nil {
		t.Fatal(err)
	}
	pf.Prefetch(1)
	pf.Close()
}

// TestPrefetcherMemorySourceServesViews: over an in-memory source a chunk is
// the data set's own rows — nothing copied, nothing allocated, nothing to hit
// or miss — and hints and Close are harmless.
func TestPrefetcherMemorySourceServesViews(t *testing.T) {
	d := streamDataset(t, 60, 4, 3)
	reg := telemetry.NewRegistry()
	pf, err := NewPrefetcher(NewMemorySource(d), 16, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	for idx := 0; idx < pf.Chunks(); idx++ {
		ch, err := pf.Fetch(idx)
		if err != nil {
			t.Fatal(err)
		}
		rows := min(16, 60-16*idx)
		if ch.Lo != 16*idx || ch.Hi != ch.Lo+rows || ch.X.Rows != rows || ch.X.Cols != 4 || len(ch.Y) != rows {
			t.Fatalf("chunk %d is [%d,%d), X %dx%d, %d labels", idx, ch.Lo, ch.Hi, ch.X.Rows, ch.X.Cols, len(ch.Y))
		}
		if &ch.X.Data[0] != &d.X.Data[ch.Lo*4] || &ch.Y[0] != &d.Y[ch.Lo] {
			t.Fatalf("chunk %d is a copy, want a view of the data set", idx)
		}
		pf.Prefetch(idx + 1)
	}
	if hits, misses := prefetchCounts(reg); hits != 0 || misses != 0 {
		t.Errorf("in-memory fetches counted hits=%d misses=%d, want none", hits, misses)
	}
	idx := 0
	if allocs := testing.AllocsPerRun(8, func() {
		if _, err := pf.Fetch(idx % pf.Chunks()); err != nil {
			t.Fatal(err)
		}
		idx++
	}); allocs != 0 {
		t.Errorf("in-memory Fetch allocated %v times, want 0", allocs)
	}
}

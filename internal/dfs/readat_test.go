package dfs

// Streaming-read coverage for the out-of-core training path: the consensus
// minibatch engine walks partition files chunk by chunk through ReadAt with a
// reused destination buffer, concurrently across mapper goroutines. These
// tests pin the primitive that walk relies on — run them under -race.

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// TestReadAtSequentialWindows walks a multi-block file with every window
// geometry the streaming reader produces: block-aligned, straddling block
// boundaries, and the truncated tail.
func TestReadAtSequentialWindows(t *testing.T) {
	const blockSize = 64
	c := newTestCluster(t, 3, WithBlockSize(blockSize))
	data := randomBytes(blockSize*5+17, 11) // ragged tail block
	if err := c.Write("/f", data, ""); err != nil {
		t.Fatal(err)
	}
	for _, window := range []int{1, blockSize / 2, blockSize, blockSize + 7, 3 * blockSize} {
		buf := make([]byte, window)
		for off := 0; off < len(data); off += window {
			n, err := c.ReadAt("/f", int64(off), buf)
			if err != nil {
				t.Fatalf("window %d offset %d: %v", window, off, err)
			}
			wantN := window
			if off+window > len(data) {
				wantN = len(data) - off
			}
			if n != wantN {
				t.Fatalf("window %d offset %d: n = %d, want %d", window, off, n, wantN)
			}
			if !bytes.Equal(buf[:n], data[off:off+n]) {
				t.Fatalf("window %d offset %d: content mismatch", window, off)
			}
		}
	}
	// Edge cases: reading exactly at EOF is empty, past EOF is the caller's bug.
	if n, err := c.ReadAt("/f", int64(len(data)), make([]byte, 8)); err != nil || n != 0 {
		t.Errorf("ReadAt(EOF) = %d, %v; want 0, nil", n, err)
	}
	if _, err := c.ReadAt("/f", int64(len(data))+1, make([]byte, 8)); err == nil {
		t.Error("ReadAt past EOF: want error")
	}
	if _, err := c.ReadAt("/missing", 0, make([]byte, 8)); !errors.Is(err, ErrNotFound) {
		t.Errorf("ReadAt missing file: err = %v, want ErrNotFound", err)
	}
}

// TestReadAtBufferReuse pins the reader-reuse contract: a destination buffer
// cycled across calls (the double-buffered prefetcher's pattern) must come
// back fully overwritten, with no stale bytes from the previous window
// surviving a short tail read.
func TestReadAtBufferReuse(t *testing.T) {
	const blockSize = 32
	c := newTestCluster(t, 2, WithBlockSize(blockSize))
	data := randomBytes(blockSize*3+5, 7)
	if err := c.Write("/f", data, ""); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockSize+3)
	for off := 0; off < len(data); off += len(buf) {
		for i := range buf {
			buf[i] = 0xAA // poison: any survivor byte is a missed write
		}
		n, err := c.ReadAt("/f", int64(off), buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf[:n], data[off:off+n]) {
			t.Fatalf("offset %d: reused buffer holds wrong bytes", off)
		}
		for _, b := range buf[n:] {
			if b != 0xAA {
				t.Fatalf("offset %d: ReadAt wrote past the returned length", off)
			}
		}
	}
}

// TestReadAtConcurrent hammers one cluster from many goroutines — streaming
// windows over two files plus whole-file reads and metadata calls — and every
// read must observe exactly the written bytes. The -race run is the point.
func TestReadAtConcurrent(t *testing.T) {
	const blockSize = 128
	c := newTestCluster(t, 3, WithBlockSize(blockSize))
	files := map[string][]byte{
		"/a": randomBytes(blockSize*7+19, 31),
		"/b": randomBytes(blockSize*4+3, 32),
	}
	for path, data := range files {
		if err := c.Write(path, data, ""); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			path := "/a"
			if g%2 == 1 {
				path = "/b"
			}
			data := files[path]
			buf := make([]byte, blockSize-11) // private reused buffer per reader
			for i := 0; i < 200; i++ {
				switch i % 10 {
				case 9: // occasional whole-file read alongside the streams
					got, err := readAll(c, path)
					if err != nil {
						errc <- err
						return
					}
					if !bytes.Equal(got, data) {
						errc <- errors.New(path + ": whole-file read mismatch")
						return
					}
				case 8:
					if _, err := c.numBlocks(path); err != nil {
						errc <- err
						return
					}
				default:
					off := rng.Intn(len(data))
					n, err := c.ReadAt(path, int64(off), buf)
					if err != nil {
						errc <- err
						return
					}
					if !bytes.Equal(buf[:n], data[off:off+n]) {
						errc <- errors.New(path + ": windowed read mismatch")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestReadAtSelfHealsUnderConcurrency: corrupt one replica of a hot block,
// then stream it from several goroutines at once — every reader must get the
// healthy bytes (served from a surviving replica) and never the corruption.
func TestReadAtSelfHealsUnderConcurrency(t *testing.T) {
	const blockSize = 64
	c, err := NewCluster(WithBlockSize(blockSize), WithReplication(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"n0", "n1", "n2"} {
		if err := c.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	data := randomBytes(blockSize*3, 17)
	if err := c.Write("/f", data, ""); err != nil {
		t.Fatal(err)
	}
	locs, err := c.locations("/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.corruptReplica("/f", 1, locs[1][0]); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, blockSize)
			for i := 0; i < 50; i++ {
				n, err := c.ReadAt("/f", int64(blockSize), buf) // the corrupted block
				if err != nil {
					errc <- err
					return
				}
				if !bytes.Equal(buf[:n], data[blockSize:2*blockSize]) {
					errc <- errors.New("read returned corrupt bytes")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func newTestCluster(t *testing.T, nodes int, opts ...Option) *Cluster {
	t.Helper()
	c, err := NewCluster(opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nodes; i++ {
		if err := c.AddNode(nodeName(i)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func nodeName(i int) string { return string(rune('a'+i)) + "-node" }

func randomBytes(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// readAll reads the whole of path through ReadAt.
func readAll(c *Cluster, path string) ([]byte, error) {
	size, err := c.FileSize(path)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, size)
	n, err := c.ReadAt(path, 0, buf)
	return buf[:n], err
}

// corruptReplica flips bits in one replica of one block — the fault-
// injection hook the recovery tests use.
func (c *Cluster) corruptReplica(path string, blockIdx int, node string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[path]
	if !ok {
		return fmt.Errorf("%w: file %q", ErrNotFound, path)
	}
	if blockIdx < 0 || blockIdx >= len(f.blocks) {
		return fmt.Errorf("%w: block %d of %q", ErrNotFound, blockIdx, path)
	}
	b := f.blocks[blockIdx]
	data, ok := b.replicas[node]
	if !ok {
		return fmt.Errorf("%w: no replica of %s on %q", ErrNotFound, b.id, node)
	}
	if len(data) == 0 {
		return nil
	}
	data[0] ^= 0xFF
	return nil
}

// locations returns, per block of path, the sorted node names holding a
// replica.
func (c *Cluster) locations(path string) ([][]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: file %q", ErrNotFound, path)
	}
	out := make([][]string, len(f.blocks))
	for i, b := range f.blocks {
		out[i] = sortedReplicaNodes(b)
	}
	return out, nil
}

// numBlocks returns how many blocks path occupies.
func (c *Cluster) numBlocks(path string) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[path]
	if !ok {
		return 0, fmt.Errorf("%w: file %q", ErrNotFound, path)
	}
	return len(f.blocks), nil
}

// used returns the bytes stored on the named node.
func (c *Cluster) used(node string) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[node]
	if !ok {
		return 0, fmt.Errorf("%w: node %q", ErrNotFound, node)
	}
	return n.used, nil
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(WithBlockSize(0)); !errors.Is(err, ErrBadConfig) {
		t.Errorf("block size 0: err = %v, want ErrBadConfig", err)
	}
	if _, err := NewCluster(WithReplication(0)); !errors.Is(err, ErrBadConfig) {
		t.Errorf("replication 0: err = %v, want ErrBadConfig", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	c := newTestCluster(t, 3, WithBlockSize(16))
	data := randomBytes(100, 1) // forces 7 blocks
	if err := c.Write("/x", data, ""); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(c, "/x")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("read differs from written data")
	}
	sz, err := c.FileSize("/x")
	if err != nil {
		t.Fatal(err)
	}
	if sz != 100 {
		t.Errorf("FileSize = %d, want 100", sz)
	}
	locs, err := c.locations("/x")
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 7 {
		t.Errorf("got %d blocks, want 7", len(locs))
	}
}

func TestEmptyFile(t *testing.T) {
	c := newTestCluster(t, 1)
	if err := c.Write("/empty", nil, ""); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(c, "/empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty file read %d bytes", len(got))
	}
}

func TestPreferredPlacement(t *testing.T) {
	c := newTestCluster(t, 4, WithBlockSize(8))
	data := randomBytes(64, 2)
	if err := c.Write("/local", data, nodeName(2)); err != nil {
		t.Fatal(err)
	}
	used, err := c.used(nodeName(2))
	if err != nil {
		t.Fatal(err)
	}
	if used != 64 {
		t.Errorf("preferred node stores %d bytes, want all 64", used)
	}
}

func TestPreferredUnknownNode(t *testing.T) {
	c := newTestCluster(t, 2)
	if err := c.Write("/x", []byte("hi"), "ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown preferred: err = %v, want ErrNotFound", err)
	}
}

func TestReplication(t *testing.T) {
	c := newTestCluster(t, 3, WithBlockSize(8), WithReplication(2))
	if err := c.Write("/r", randomBytes(24, 3), ""); err != nil {
		t.Fatal(err)
	}
	locs, err := c.locations("/r")
	if err != nil {
		t.Fatal(err)
	}
	for i, nodes := range locs {
		if len(nodes) != 2 {
			t.Errorf("block %d has %d replicas, want 2", i, len(nodes))
		}
	}
}

func TestReplicationExceedsNodes(t *testing.T) {
	c := newTestCluster(t, 1, WithReplication(3))
	if err := c.Write("/x", []byte("d"), ""); !errors.Is(err, ErrBadConfig) {
		t.Errorf("replication > nodes: err = %v, want ErrBadConfig", err)
	}
}

func TestWriteNoNodes(t *testing.T) {
	c := newTestCluster(t, 0)
	if err := c.Write("/x", []byte("d"), ""); !errors.Is(err, ErrNoNodes) {
		t.Errorf("no nodes: err = %v, want ErrNoNodes", err)
	}
}

func TestOverwriteReleasesSpace(t *testing.T) {
	c := newTestCluster(t, 1, WithBlockSize(8))
	if err := c.Write("/x", randomBytes(64, 4), nodeName(0)); err != nil {
		t.Fatal(err)
	}
	if err := c.Write("/x", randomBytes(8, 5), nodeName(0)); err != nil {
		t.Fatal(err)
	}
	used, err := c.used(nodeName(0))
	if err != nil {
		t.Fatal(err)
	}
	if used != 8 {
		t.Errorf("after overwrite node uses %d bytes, want 8", used)
	}
}

func TestDuplicateNode(t *testing.T) {
	c := newTestCluster(t, 1)
	if err := c.AddNode(nodeName(0)); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate node: err = %v, want ErrExists", err)
	}
}

func TestLeastUsedPlacementBalances(t *testing.T) {
	c := newTestCluster(t, 4, WithBlockSize(1024))
	for i := 0; i < 16; i++ {
		if err := c.Write(string(rune('a'+i)), randomBytes(1024, int64(i)), ""); err != nil {
			t.Fatal(err)
		}
	}
	// No preferred node: 16 equal blocks over 4 nodes should balance 4/4/4/4.
	for i := 0; i < 4; i++ {
		used, err := c.used(nodeName(i))
		if err != nil {
			t.Fatal(err)
		}
		if used != 4*1024 {
			t.Errorf("node %d stores %d bytes, want %d", i, used, 4*1024)
		}
	}
}

func TestChecksumSelfHealingRead(t *testing.T) {
	c := newTestCluster(t, 3, WithBlockSize(16), WithReplication(2))
	data := randomBytes(48, 10)
	if err := c.Write("/heal", data, ""); err != nil {
		t.Fatal(err)
	}
	locs, err := c.locations("/heal")
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one replica of every block.
	for bi, nodes := range locs {
		if err := c.corruptReplica("/heal", bi, nodes[0]); err != nil {
			t.Fatal(err)
		}
	}
	// Read succeeds from the healthy replicas and heals the corrupt ones.
	got, err := readAll(c, "/heal")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("healed read returned wrong data")
	}
	// Corrupt the OTHER replica now; the previously corrupt (now healed)
	// copy must carry the read.
	for bi, nodes := range locs {
		if err := c.corruptReplica("/heal", bi, nodes[1]); err != nil {
			t.Fatal(err)
		}
	}
	got, err = readAll(c, "/heal")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("second healed read returned wrong data; healing did not persist")
	}
}

func TestAllReplicasCorrupt(t *testing.T) {
	c := newTestCluster(t, 2, WithBlockSize(16), WithReplication(2))
	if err := c.Write("/doomed", randomBytes(16, 11), ""); err != nil {
		t.Fatal(err)
	}
	locs, err := c.locations("/doomed")
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range locs[0] {
		if err := c.corruptReplica("/doomed", 0, node); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := readAll(c, "/doomed"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("all-corrupt read: err = %v, want ErrCorrupt", err)
	}
}

func TestCorruptReplicaValidation(t *testing.T) {
	c := newTestCluster(t, 1)
	if err := c.corruptReplica("/ghost", 0, nodeName(0)); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing file: err = %v, want ErrNotFound", err)
	}
	if err := c.Write("/x", []byte("abc"), ""); err != nil {
		t.Fatal(err)
	}
	if err := c.corruptReplica("/x", 5, nodeName(0)); !errors.Is(err, ErrNotFound) {
		t.Errorf("bad block index: err = %v, want ErrNotFound", err)
	}
	if err := c.corruptReplica("/x", 0, "ghost-node"); !errors.Is(err, ErrNotFound) {
		t.Errorf("no replica on node: err = %v, want ErrNotFound", err)
	}
}

func TestRandomizedOperationsPreserveData(t *testing.T) {
	// Property: under a random sequence of writes, overwrites,
	// single-replica corruptions and reads, every read returns exactly what
	// was last written (replication 2 heals single corruptions), and a path
	// never written is ErrNotFound.
	rng := rand.New(rand.NewSource(99))
	c := newTestCluster(t, 4, WithBlockSize(32), WithReplication(2))
	expected := map[string][]byte{}
	paths := []string{"/a", "/b", "/c", "/d", "/e"}
	for step := 0; step < 400; step++ {
		path := paths[rng.Intn(len(paths))]
		switch rng.Intn(4) {
		case 0, 1: // write or overwrite
			data := randomBytes(rng.Intn(200), int64(step))
			if err := c.Write(path, data, ""); err != nil {
				t.Fatalf("step %d write: %v", step, err)
			}
			expected[path] = data
		case 2: // corrupt one replica of one block
			if _, ok := expected[path]; !ok {
				continue
			}
			locs, err := c.locations(path)
			if err != nil || len(locs) == 0 {
				continue
			}
			bi := rng.Intn(len(locs))
			if len(locs[bi]) == 0 {
				continue
			}
			node := locs[bi][rng.Intn(len(locs[bi]))]
			if err := c.corruptReplica(path, bi, node); err != nil {
				t.Fatalf("step %d corrupt: %v", step, err)
			}
		default: // read and verify
			want, ok := expected[path]
			got, err := readAll(c, path)
			if !ok {
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("step %d: read unwritten %q: err = %v", step, path, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("step %d read %q: %v", step, path, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: %q read %d bytes != expected %d", step, path, len(got), len(want))
			}
		}
	}
	// Final sweep: everything still intact.
	for path, want := range expected {
		got, err := readAll(c, path)
		if err != nil {
			t.Fatalf("final read %q: %v", path, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("final read %q differs", path)
		}
	}
}

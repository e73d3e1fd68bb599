// Package dfs is an in-memory HDFS-lite: files are split into fixed-size
// blocks, blocks are replicated across named data nodes, and a central
// name-node index maps every file to its block locations. The paper treats
// "each learner as a data node of HDFS" (Section I); the MapReduce scheduler
// uses this package's location metadata to place Map tasks on the nodes that
// already hold their input — the data-locality property the whole
// privacy argument rests on.
package dfs

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
)

// Errors returned by the cluster.
var (
	// ErrNotFound indicates an unknown file or node.
	ErrNotFound = errors.New("dfs: not found")
	// ErrExists indicates a duplicate file or node name.
	ErrExists = errors.New("dfs: already exists")
	// ErrNoNodes indicates an operation requiring data nodes on an empty
	// cluster.
	ErrNoNodes = errors.New("dfs: no data nodes")
	// ErrCorrupt indicates every replica of some block failed its checksum.
	ErrCorrupt = errors.New("dfs: all replicas of a block are corrupt")
	// ErrBadConfig indicates invalid cluster options.
	ErrBadConfig = errors.New("dfs: bad configuration")
)

// DefaultBlockSize is 1 MiB; small enough that multi-block files appear in
// simulations, large enough to keep metadata trivial.
const DefaultBlockSize = 1 << 20

// Option configures a Cluster.
type Option func(*Cluster)

// WithBlockSize sets the block size in bytes.
func WithBlockSize(n int) Option { return func(c *Cluster) { c.blockSize = n } }

// WithReplication sets the replication factor (default 1: in this system a
// learner's private partition must NOT leave its node, so the trainer uses
// replication 1 deliberately; generic files may use more).
func WithReplication(r int) Option { return func(c *Cluster) { c.replication = r } }

type block struct {
	id       string
	size     int
	checksum uint32            // CRC-32 of the block contents, fixed at write time
	replicas map[string][]byte // node name → that node's copy of the block
}

type file struct {
	name   string
	size   int
	blocks []*block
}

// Cluster is the name node plus its data nodes.
type Cluster struct {
	mu          sync.Mutex
	blockSize   int
	replication int
	nextBlock   int
	nodes       map[string]*nodeState
	files       map[string]*file
}

type nodeState struct {
	name string
	used int64
}

// NewCluster creates an empty cluster.
func NewCluster(opts ...Option) (*Cluster, error) {
	c := &Cluster{
		blockSize:   DefaultBlockSize,
		replication: 1,
		nodes:       make(map[string]*nodeState),
		files:       make(map[string]*file),
	}
	for _, o := range opts {
		o(c)
	}
	if c.blockSize <= 0 {
		return nil, fmt.Errorf("%w: block size %d", ErrBadConfig, c.blockSize)
	}
	if c.replication < 1 {
		return nil, fmt.Errorf("%w: replication %d", ErrBadConfig, c.replication)
	}
	return c, nil
}

// AddNode registers a data node.
func (c *Cluster) AddNode(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.nodes[name]; ok {
		return fmt.Errorf("%w: node %q", ErrExists, name)
	}
	c.nodes[name] = &nodeState{name: name}
	return nil
}

// Write stores data as path, splitting it into blocks. When preferred names
// a live node, the first replica of every block lands there (write-locality,
// as HDFS gives a writing client); remaining replicas go to the least-used
// other nodes. An existing file is replaced atomically.
func (c *Cluster) Write(path string, data []byte, preferred string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.nodes) == 0 {
		return ErrNoNodes
	}
	if c.replication > len(c.nodes) {
		return fmt.Errorf("%w: replication %d exceeds %d nodes", ErrBadConfig, c.replication, len(c.nodes))
	}
	if _, ok := c.nodes[preferred]; preferred != "" && !ok {
		return fmt.Errorf("%w: preferred node %q", ErrNotFound, preferred)
	}
	if old, ok := c.files[path]; ok {
		c.dropBlocksLocked(old)
	}
	f := &file{name: path, size: len(data)}
	for off := 0; off < len(data) || (len(data) == 0 && off == 0); off += c.blockSize {
		end := off + c.blockSize
		if end > len(data) {
			end = len(data)
		}
		chunk := data[off:end]
		b := &block{
			id:       fmt.Sprintf("blk_%d", c.nextBlock),
			size:     len(chunk),
			checksum: crc32.ChecksumIEEE(chunk),
			replicas: make(map[string][]byte, c.replication),
		}
		c.nextBlock++
		for _, node := range c.placementLocked(preferred, b) {
			b.replicas[node] = append([]byte(nil), chunk...)
			c.nodes[node].used += int64(b.size)
		}
		f.blocks = append(f.blocks, b)
		if len(data) == 0 {
			break
		}
	}
	c.files[path] = f
	return nil
}

// placementLocked picks replication target nodes: preferred first, then the
// least-used remaining nodes.
func (c *Cluster) placementLocked(preferred string, b *block) []string {
	targets := make([]string, 0, c.replication)
	if preferred != "" {
		targets = append(targets, preferred)
	}
	rest := make([]*nodeState, 0, len(c.nodes))
	for _, n := range c.nodes {
		if n.name != preferred {
			rest = append(rest, n)
		}
	}
	sort.Slice(rest, func(i, j int) bool {
		if rest[i].used != rest[j].used {
			return rest[i].used < rest[j].used
		}
		return rest[i].name < rest[j].name
	})
	for _, n := range rest {
		if len(targets) == c.replication {
			break
		}
		targets = append(targets, n.name)
	}
	return targets
}

// ReadAt copies len(dst) bytes starting at byte offset off of path into dst
// and returns the number of bytes copied. Only the blocks overlapping
// [off, off+len(dst)) are touched. Every block read is checksum-verified: a
// corrupt replica is healed in place from a healthy one (the HDFS
// self-healing read path), and the read fails with ErrCorrupt only if every
// replica of some block is damaged. This is the out-of-core streaming
// primitive: a reader can walk a file chunk by chunk into a reused buffer
// without ever materializing the whole file. A range ending past the file is
// truncated (n < len(dst)); a range starting at or past the end reads zero
// bytes. An out-of-range offset is the caller's bug and errors.
func (c *Cluster) ReadAt(path string, off int64, dst []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[path]
	if !ok {
		return 0, fmt.Errorf("%w: file %q", ErrNotFound, path)
	}
	if off < 0 || off > int64(f.size) {
		return 0, fmt.Errorf("dfs: offset %d out of range for %q (%d bytes)", off, path, f.size)
	}
	n := 0
	for n < len(dst) && off+int64(n) < int64(f.size) {
		pos := off + int64(n)
		bi := int(pos / int64(c.blockSize))
		bo := int(pos % int64(c.blockSize))
		healthy, err := c.healthyCopyLocked(f, f.blocks[bi])
		if err != nil {
			return n, err
		}
		n += copy(dst[n:], healthy[bo:])
	}
	return n, nil
}

// healthyCopyLocked returns a checksum-valid copy of b, repairing corrupt
// replicas from it as a side effect.
func (c *Cluster) healthyCopyLocked(f *file, b *block) ([]byte, error) {
	var healthy []byte
	found := false
	var corrupt []string
	for _, node := range sortedReplicaNodes(b) {
		data := b.replicas[node]
		if crc32.ChecksumIEEE(data) == b.checksum && len(data) == b.size {
			if !found {
				healthy = data
				found = true
			}
		} else {
			corrupt = append(corrupt, node)
		}
	}
	if !found {
		return nil, fmt.Errorf("%w: %s of %q", ErrCorrupt, b.id, f.name)
	}
	for _, node := range corrupt {
		b.replicas[node] = append([]byte(nil), healthy...)
	}
	return healthy, nil
}

func sortedReplicaNodes(b *block) []string {
	nodes := make([]string, 0, len(b.replicas))
	for n := range b.replicas {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	return nodes
}

// dropBlocksLocked releases the space f's replicas hold on their nodes.
func (c *Cluster) dropBlocksLocked(f *file) {
	for _, b := range f.blocks {
		for node := range b.replicas {
			c.nodes[node].used -= int64(b.size)
		}
	}
}

// FileSize returns the size of path in bytes.
func (c *Cluster) FileSize(path string) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[path]
	if !ok {
		return 0, fmt.Errorf("%w: file %q", ErrNotFound, path)
	}
	return f.size, nil
}

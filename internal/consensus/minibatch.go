// The chunk schedule every Map() task follows, and the virtual-learner state
// the horizontal schemes keep per chunk. A mapper solves its local
// sub-problem over one chunk of rows per round; with one chunk (ChunkRows
// zero, or at least the learner's row count) that is the paper's full-batch
// iteration, with more it is minibatch ADMM at O(chunk) per round. See the
// package comment and DESIGN.md §15.
package consensus

import (
	"math/rand"

	"github.com/ppml-go/ppml/internal/linalg"
)

// metricChunkSeconds is the latency histogram of one mapper round (one chunk
// sub-problem), observed by all four schemes.
const metricChunkSeconds = "ppml_chunk_seconds"

// sharedChunkStream is the schedule id the vertical schemes use: the rows are
// shared across learners, so mappers and the Reducer must visit the same
// chunk every round, which they do by deriving one common permutation stream.
const sharedChunkStream = -1

// chunkSchedule maps an iteration number to a contiguous row chunk: chunks
// are visited in a seeded permutation reshuffled every epoch, so every row is
// visited once per epoch. The permutation is a pure function of (seed, id,
// epoch), so out-of-order queries — a prefetch hint for the next round —
// always agree with in-order ones. A chunkRows of zero
// or less means all rows: one chunk, visited every round.
type chunkSchedule struct {
	rows, chunkRows, numChunks int
	seed                       int64
	id                         int

	epoch int // epoch whose permutation is cached
	perm  []int
}

func newChunkSchedule(rows, chunkRows int, seed int64, id int) *chunkSchedule {
	if chunkRows <= 0 || chunkRows > rows {
		chunkRows = rows
	}
	return &chunkSchedule{
		rows:      rows,
		chunkRows: chunkRows,
		numChunks: numChunksFor(rows, chunkRows),
		seed:      seed,
		id:        id,
		epoch:     -1,
	}
}

// numChunksFor is the chunk count a schedule over rows will use — exposed so
// trainers can size the virtual cohort M′ before building any mapper.
func numChunksFor(rows, chunkRows int) int {
	if chunkRows <= 0 || chunkRows >= rows {
		return 1
	}
	return (rows + chunkRows - 1) / chunkRows
}

// chunk returns the chunk index and row range [lo, hi) iteration iter visits.
func (s *chunkSchedule) chunk(iter int) (idx, lo, hi int) {
	if s.numChunks == 1 {
		return 0, 0, s.rows
	}
	epoch, pos := iter/s.numChunks, iter%s.numChunks
	if epoch != s.epoch {
		s.reshuffle(epoch)
	}
	idx = s.perm[pos]
	lo = idx * s.chunkRows
	hi = lo + s.chunkRows
	if hi > s.rows {
		hi = s.rows
	}
	return idx, lo, hi
}

// weight is s = N/n_c for a chunk of nc rows: what the vertical schemes
// scale a chunk's rows (and its share of the residual) by so that they stand
// in for the full record set. It is 1 with one chunk.
func (s *chunkSchedule) weight(nc int) float64 { return float64(s.rows) / float64(nc) }

func (s *chunkSchedule) reshuffle(epoch int) {
	mixed := uint64(s.seed) ^ (uint64(epoch)+1)*0x9e3779b97f4a7c15 ^ uint64(int64(s.id)+101)*0x2545f4914f6cdd1d
	//ppml:deterministic-ok the chunk visit order is protocol-public scheduling metadata: it must be bit-identical across runs (reproducible benchmarks) and, for the vertical schemes, identical across every learner and the Reducer, all of which derive it from the shared Config.Seed
	rng := rand.New(rand.NewSource(int64(mixed)))
	if s.perm == nil {
		s.perm = make([]int, s.numChunks)
	}
	for i := range s.perm {
		s.perm[i] = i
	}
	rng.Shuffle(len(s.perm), func(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] })
	s.epoch = epoch
}

// rowView is a zero-copy view of rows [lo, hi) of m, valid as long as m is.
// All of m is m itself, so kernel.MatrixInto still sees a self-Gram.
func rowView(m *linalg.Matrix, lo, hi int) *linalg.Matrix {
	if lo == 0 && hi == m.Rows {
		return m
	}
	return &linalg.Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// virtualLearners is the consensus state a horizontal mapper keeps for its
// chunks. Every chunk is a full virtual learner of the consensus: across the
// cohort there are M′ = Σ_m J_m of them (J_m chunks on learner m), each
// owning its rows outright — box [0, C], every M-dependent factor computed
// with M′ — with its own scaled duals, last local iterate and QP warm start.
// Per round the mapper refreshes exactly one virtual learner and contributes
// the running mean of all its chunks' terms, so the Reducer's cohort mean
// equals the M′-learner consensus z-update with J_m−1 stale summands per
// learner — an incremental ADMM whose iterates settle onto the full-batch
// fixed point instead of orbiting it in a noise ball. With J_m = 1 the mean
// is the single term and this is the paper's iteration.
//
// The consensus state is (z, s) with z of length dim: (w, b) for HL, (Gw, b)
// for HK. A chunk's vectors are created on its first visit, so a mapper over
// a streamed partition holds state for visited chunks only.
type virtualLearners struct {
	dim    int
	chunks []virtualLearner

	// sum is the elementwise total of the visited chunks' terms; the
	// contribution is sum/visited.
	sum     []float64
	visited int

	u       []float64 // z − dual_c scratch
	contrib []float64
}

// virtualLearner is one chunk's share of that state.
type virtualLearner struct {
	dual   []float64 // scaled dual of the z-consensus (γ_c / r_c)
	beta   float64   // scaled dual for b = s
	prev   []float64 // last local iterate (w_c / Gw_c)
	prevB  float64
	seen   bool      // has a local iterate
	lambda []float64 // QP dual, the next visit's warm start
	term   []float64 // the last (iterate + dual) this chunk reported
}

func newVirtualLearners(numChunks, dim int) virtualLearners {
	buf := make([]float64, 3*dim+2)
	return virtualLearners{
		dim:     dim,
		chunks:  make([]virtualLearner, numChunks),
		sum:     buf[:dim+1],
		u:       buf[dim+1 : 2*dim+1],
		contrib: buf[2*dim+1:],
	}
}

// open starts chunk idx's round against the consensus just received: the
// scaled duals advance (dual_c += prev_c − z, β_c += b_c − s, skipped before
// the chunk's first solve) and the chunk is returned with the sub-problem's
// centre u = z − dual_c, t = s − β_c. rows sizes the warm start, zero on a
// first visit.
func (v *virtualLearners) open(idx, rows int, state []float64) (c *virtualLearner, u []float64, t float64) {
	z, s := state[:v.dim], state[v.dim]
	c = &v.chunks[idx]
	if c.dual == nil {
		buf := make([]float64, 3*v.dim+1+rows)
		c.dual, buf = buf[:v.dim], buf[v.dim:]
		c.prev, buf = buf[:v.dim], buf[v.dim:]
		c.term, c.lambda = buf[:v.dim+1], buf[v.dim+1:]
	}
	if c.seen {
		for j, p := range c.prev {
			c.dual[j] += p - z[j]
		}
		c.beta += c.prevB - s
	}
	return c, linalg.SubVec(z, c.dual, v.u), s - c.beta
}

// commit ends c's round: lambda is the solved dual, the new local iterate is
// b plus the vector the caller wrote into c.prev. The chunk's refreshed term
// is swapped into the running aggregate, so each round moves the cohort sum
// by exactly one virtual learner's update, and the mean over the chunks
// visited so far is returned (valid until the next commit).
func (v *virtualLearners) commit(c *virtualLearner, lambda []float64, b float64) []float64 {
	// lambda aliases the qp scratch, which the next solve zeroes.
	copy(c.lambda, lambda)
	c.prevB = b
	if !c.seen {
		c.seen = true
		v.visited++
	} else {
		for j, t := range c.term {
			v.sum[j] -= t
		}
	}
	for j, w := range c.prev {
		c.term[j] = w + c.dual[j]
	}
	c.term[v.dim] = b + c.beta
	inv := 1 / float64(v.visited)
	for j, t := range c.term {
		v.sum[j] += t
		v.contrib[j] = v.sum[j] * inv
	}
	return v.contrib
}

// means writes r̄, the mean of the visited chunks' scaled duals, into r and
// returns b̄, the mean of their biases; both are zero before the first
// commit. With one chunk they are that chunk's own; with more, every chunk
// holds the consensus at the fixed point. They are re-summed in chunk order,
// so the value does not depend on the visit order.
func (v *virtualLearners) means(r []float64) float64 {
	linalg.Zero(r)
	if v.visited == 0 {
		return 0
	}
	b := 0.0
	for i := range v.chunks {
		if c := &v.chunks[i]; c.seen {
			linalg.Axpy(1, c.dual, r)
			b += c.prevB
		}
	}
	linalg.Scale(1/float64(v.visited), r)
	return b / float64(v.visited)
}

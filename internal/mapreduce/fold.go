package mapreduce

import (
	"fmt"
	"math/big"
	"sync"

	"github.com/ppml-go/ppml/internal/fixedpoint"
	"github.com/ppml-go/ppml/internal/paillier"
	"github.com/ppml-go/ppml/internal/parallel"
	"github.com/ppml-go/ppml/internal/securesum"
	"github.com/ppml-go/ppml/internal/transport"
)

// folder accumulates the shares of one roster's collection on the Reducer and
// yields their sum. There is one per Aggregation, and it is the only place
// that aggregation's fold is written; the round engine drives all three the
// same way. The masked folder is roster-scoped — its shares cancel only when
// exactly the declared roster delivers — while a partial plain or Paillier
// sum is valid as it stands.
type folder interface {
	// kind is the wire kind of the shares this folder accepts.
	kind() string
	// reset starts a collection that expects n shares.
	reset(n int) error
	// add folds one share payload.
	add(payload []byte) error
	// sum returns the aggregate; the slice is valid until the next reset.
	sum() ([]float64, error)
}

// reduceScratch is the Reducer's per-session reuse state: the broadcast
// encoding, the round's reach set and delivery marks, the share decode buffer
// and the aggregate. The broadcast bytes are shared with every mapper they
// reach, each of which decodes them before it shares: round r+1 overwrites
// them only if round r folded every such mapper (else they are lent).
type reduceScratch struct {
	bcast    []byte
	lent     bool
	reach    transport.Roster
	got      []bool
	shareBuf []uint64
	sum      []float64
}

// newFolder builds the session's folder for agg over m mappers.
func newFolder(agg Aggregation, m, dim int, codec fixedpoint.Codec, key *paillier.PrivateKey, pack *paillier.Packing, s *reduceScratch) (folder, error) {
	switch agg {
	case AggregationPlain:
		return &plainFold{dim: dim, s: s}, nil
	case AggregationPaillier:
		return &paillierFold{key: key, pack: pack, codec: codec, dim: dim}, nil
	}
	col, err := securesum.NewCollector(m, dim, codec)
	if err != nil {
		return nil, err
	}
	return &maskedFold{col: col, s: s}, nil
}

// maskedFold sums pairwise-masked ring shares (both mask modes deliver the
// same shares). The collector and the decode buffer are reused every
// collection; Add copies into the accumulator immediately.
type maskedFold struct {
	col *securesum.Collector
	s   *reduceScratch
}

func (f *maskedFold) kind() string      { return securesum.KindShare }
func (f *maskedFold) reset(n int) error { return f.col.ResetFor(n) }

func (f *maskedFold) add(payload []byte) error {
	share, err := securesum.DecodeSharesInto(f.s.shareBuf, payload)
	if err != nil {
		return err
	}
	f.s.shareBuf = share
	return f.col.Add(share)
}

func (f *maskedFold) sum() ([]float64, error) {
	sum, err := f.col.SumInto(f.s.sum)
	if err != nil {
		return nil, err
	}
	f.s.sum = sum
	return sum, nil
}

// plainFold adds raw float64 shares in arrival order.
type plainFold struct {
	dim int
	s   *reduceScratch
}

func (f *plainFold) kind() string { return KindPlainShare }

func (f *plainFold) reset(int) error {
	if cap(f.s.sum) < f.dim {
		f.s.sum = make([]float64, f.dim)
	}
	f.s.sum = f.s.sum[:f.dim]
	for j := range f.s.sum {
		f.s.sum[j] = 0
	}
	return nil
}

func (f *plainFold) add(payload []byte) error {
	v, err := decodeVector(payload)
	if err != nil {
		return err
	}
	if len(v) != f.dim {
		return fmt.Errorf("%w: share of %d values, want %d", ErrBadJob, len(v), f.dim)
	}
	for j, x := range v {
		f.s.sum[j] += x
	}
	return nil
}

func (f *plainFold) sum() ([]float64, error) { return f.s.sum, nil }

// paillierFold multiplies ciphertext shares and opens only the aggregate. The
// packing budgeted its guard bits for the full cohort, so the slot sums of
// any subset stay in range.
type paillierFold struct {
	key   *paillier.PrivateKey
	pack  *paillier.Packing
	codec fixedpoint.Codec
	dim   int
	acc   []*big.Int
}

func (f *paillierFold) kind() string { return KindCipherShare }

func (f *paillierFold) reset(int) error {
	f.acc = nil
	return nil
}

func (f *paillierFold) add(payload []byte) error {
	cs, err := paillier.UnmarshalCiphertexts(payload)
	if err != nil {
		return err
	}
	if want := f.pack.Ciphertexts(f.dim); len(cs) != want {
		return fmt.Errorf("%w: cipher share of %d ciphertexts, want %d (%d values packed %d-wide)",
			ErrBadJob, len(cs), want, f.dim, f.pack.Slots)
	}
	if f.acc == nil {
		f.acc = cs
		return nil
	}
	// Element-wise homomorphic adds are independent modular multiplications;
	// fold them on the worker pool.
	parallel.For(len(f.acc), 16, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			f.acc[j] = f.key.Add(f.acc[j], cs[j])
		}
	})
	return nil
}

// sum is the key-authority step: decrypt only the aggregate. Per-ciphertext
// decryptions (one modular exponentiation each) are independent and run on
// the worker pool; unpacking then reduces each slot mod 2⁶⁴, the fixedpoint
// ring's wrapping sum.
func (f *paillierFold) sum() ([]float64, error) {
	ms := make([]*big.Int, len(f.acc))
	var mu sync.Mutex
	var decErr error
	parallel.For(len(f.acc), 1, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			mval, err := f.key.Decrypt(f.acc[j])
			if err != nil {
				mu.Lock()
				if decErr == nil {
					decErr = err
				}
				mu.Unlock()
				return
			}
			ms[j] = mval
		}
	})
	if decErr != nil {
		return nil, fmt.Errorf("mapreduce paillier decrypt: %w", decErr)
	}
	ring, err := f.pack.UnpackVec(ms, f.dim, nil)
	if err != nil {
		return nil, fmt.Errorf("mapreduce paillier unpack: %w", err)
	}
	return f.codec.DecodeVec(ring, nil)
}

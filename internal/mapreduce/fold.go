package mapreduce

import (
	"fmt"

	"github.com/ppml-go/ppml/internal/fixedpoint"
	"github.com/ppml-go/ppml/internal/securesum"
	"github.com/ppml-go/ppml/internal/transport"
)

// folder accumulates the shares of one roster's collection on the Reducer and
// yields their sum. There is one per Aggregation, and it is the only place
// that aggregation's fold is written; the round engine drives both the same
// way. The masked folder is roster-scoped — its shares cancel only when
// exactly the declared roster delivers — while a partial plain sum is valid
// as it stands.
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
// encoding, the round's reach set, ready roster and delivery marks, the share decode
// buffers (ring words for masked shares, floats for plain ones) and the
// aggregate. The broadcast bytes are shared with every mapper they
// reach, each of which decodes them before it shares: round r+1 overwrites
// them only if round r folded every such mapper (else they are lent).
type reduceScratch struct {
	bcast    []byte
	lent     bool
	reach    transport.Roster
	ready    transport.Roster
	got      []bool
	shareBuf []uint64
	plainBuf []float64
	sum      []float64
}

// newFolder builds the session's folder for agg over m mappers.
func newFolder(agg Aggregation, m, dim int, codec fixedpoint.Codec, s *reduceScratch) (folder, error) {
	if agg == AggregationPlain {
		return &plainFold{dim: dim, s: s}, nil
	}
	col, err := securesum.NewCollector(m, dim, codec)
	if err != nil {
		return nil, err
	}
	return &maskedFold{col: col, s: s}, nil
}

// maskedFold sums pairwise-masked ring shares. The collector and the decode buffer are reused every
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
	v, err := decodeVectorInto(f.s.plainBuf, payload)
	if err != nil {
		return err
	}
	f.s.plainBuf = v
	if len(v) != f.dim {
		return fmt.Errorf("%w: share of %d values, want %d", ErrBadJob, len(v), f.dim)
	}
	for j, x := range v {
		f.s.sum[j] += x
	}
	return nil
}

func (f *plainFold) sum() ([]float64, error) { return f.s.sum, nil }

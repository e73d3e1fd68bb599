package mapreduce

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Message kinds RunDistributed sends on the transport. The round a
// message belongs to rides in its envelope (transport.Header.Round), never in
// its payload.
const (
	// KindBroadcast carries the consensus state from Reducer to Mappers: the
	// state vector alone, 8 bytes per value (appendVector).
	KindBroadcast = "mr.broadcast"
	// KindStop tells Mappers the job finished. Its payload is empty.
	KindStop = "mr.stop"
	// KindPlainShare carries an unmasked contribution (plain aggregation):
	// the masked share's ring encoding and wire format, without the masks.
	KindPlainShare = "mr.plainshare"
	// KindCipherShare was the Paillier-encrypted contribution of a retired
	// aggregation backend; no path sends it, and bench/'s tap still names it.
	KindCipherShare = "mr.ciphershare"
	// KindAbort reports a fatal Mapper error to the Reducer, stamped with the
	// round it ended. Its payload is empty: the error may quote private values.
	KindAbort = "mr.abort"
	// KindReady tells the Reducer this Mapper has a contribution for the
	// round and can join the roster (rounds under a straggler deadline, masked
	// or plain). Its payload is empty: the round rides in the envelope, and
	// the Reducer learns nothing from a declaration but who made it in time.
	KindReady = "mr.ready"
	// KindRoster broadcasts the Reducer's declared participation set for a
	// round; the roster rides in the envelope, the payload is empty. A
	// re-declaration within the round is strictly smaller, and the shares
	// derived over it carry it as their stamp.
	KindRoster = "mr.roster"
)

// appendVector appends v as little-endian float64 words to dst, growing it at
// most once: the frame of broadcasts.
func appendVector(dst []byte, v []float64) []byte {
	dst = slices.Grow(dst, 8*len(v))
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// decodeVectorInto parses an appendVector frame into dst's storage, growing
// it only when it is too small.
func decodeVectorInto(dst []float64, b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("%w: vector payload of %d bytes", ErrBadJob, len(b))
	}
	out := slices.Grow(dst[:0], len(b)/8)[:len(b)/8]
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

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
	// KindPlainShare carries an unmasked contribution (plain aggregation).
	KindPlainShare = "mr.plainshare"
	// KindCipherShare was the Paillier-encrypted contribution of a retired
	// aggregation backend; no path sends it, and bench/'s tap still names it.
	KindCipherShare = "mr.ciphershare"
	// KindAbort reports a fatal Mapper error to the Reducer, stamped with the
	// round it ended. Its payload is empty: the error may quote private values.
	KindAbort = "mr.abort"
	// KindReady tells the Reducer this Mapper has a contribution for the
	// round and can join the roster (elastic mode). The payload is empty
	// under synchronous rounds; under bounded staleness it is one byte — the
	// public staleness stamp s (how many rounds old the contribution is),
	// which the Reducer turns into the κ^s renormalization weight. Pure
	// coordination metadata, never derived from share contents.
	KindReady = "mr.ready"
	// KindRoster broadcasts the Reducer's declared participation set for a
	// round; the roster rides in the envelope, the payload is empty. A
	// re-declaration within the round is strictly smaller, and the shares
	// derived over it carry it as their stamp.
	KindRoster = "mr.roster"
)

// appendVector appends v as little-endian float64 words to dst, growing it at
// most once: the frame of broadcasts and plain shares.
func appendVector(dst []byte, v []float64) []byte {
	dst = slices.Grow(dst, 8*len(v))
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// decodeVector parses an appendVector frame.
func decodeVector(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("%w: vector payload of %d bytes", ErrBadJob, len(b))
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

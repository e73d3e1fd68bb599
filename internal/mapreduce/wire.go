package mapreduce

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Message kinds used by the iterative driver on the transport.
const (
	// KindBroadcast carries the consensus state from Reducer to Mappers.
	KindBroadcast = "mr.broadcast"
	// KindStop tells Mappers the job finished (payload: final state).
	KindStop = "mr.stop"
	// KindPlainShare carries an unmasked contribution (plain aggregation).
	KindPlainShare = "mr.plainshare"
	// KindCipherShare carries a Paillier-encrypted contribution.
	KindCipherShare = "mr.ciphershare"
	// KindAbort reports a fatal Mapper error to the Reducer.
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

// encodeStatePayload frames (iteration, vector) for broadcast messages.
func encodeStatePayload(iter int, state []float64) []byte {
	return appendStatePayload(nil, iter, state)
}

// appendStatePayload is encodeStatePayload into a reused buffer: the Reducer
// broadcasts every round and the driver's lockstep (every Mapper decodes
// round r before the Reducer can assemble round r+1) makes reusing one
// buffer safe.
func appendStatePayload(dst []byte, iter int, state []float64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(iter))
	for _, v := range state {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// decodeStatePayload parses a broadcast frame.
func decodeStatePayload(b []byte) (int, []float64, error) {
	if len(b) < 8 || (len(b)-8)%8 != 0 {
		return 0, nil, fmt.Errorf("%w: state payload of %d bytes", ErrBadJob, len(b))
	}
	iter := int(binary.LittleEndian.Uint64(b))
	state := make([]float64, (len(b)-8)/8)
	for i := range state {
		state[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8+8*i:]))
	}
	return iter, state, nil
}

// encodeVector frames a bare float64 vector (plain shares).
func encodeVector(v []float64) []byte {
	buf := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	return buf
}

// decodeVector parses a bare float64 vector.
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

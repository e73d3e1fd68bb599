package mapreduce

import (
	"context"
	"fmt"

	"ppml/internal/dataset"
	"ppml/internal/fixedpoint"
	"ppml/internal/securesum"
	"ppml/internal/transport"
)

// The fixed-point cases: an encoding is a bijection, not a mask, so what
// fixedpoint.Encode returns carries whatever its input carried.

// ringWords encodes ring elements for the wire.
func ringWords(v []uint64) []byte {
	out := make([]byte, 0, len(v))
	for _, x := range v {
		out = append(out, byte(x))
	}
	return out
}

// LeakViaEncoding sends fixed-point encoded labels: the labels are still on
// the wire.
func LeakViaEncoding(ctx context.Context, ep transport.Endpoint, hdr transport.Header, d *dataset.Dataset) error {
	return ep.Send(ctx, "reducer", KindShare, hdr, ringWords(fixedpoint.Encode(d.Y))) // want `transport send carries dataset-derived data`
}

// LeakViaShareEncoding frames fixed-point encoded labels as a share: the
// share codec is an encoding too, not a mask, so the labels are still on the
// wire.
func LeakViaShareEncoding(ctx context.Context, ep transport.Endpoint, hdr transport.Header, d *dataset.Dataset) error {
	wire := securesum.AppendShares(nil, fixedpoint.Encode(d.Y))
	return ep.Send(ctx, "reducer", KindShare, hdr, wire) // want `transport send carries dataset-derived data`
}

// encodedError embeds the encoded labels in an error string.
func encodedError(d *dataset.Dataset) error {
	return fmt.Errorf("encoded labels %v", fixedpoint.Encode(d.Y)) // want `dataset-derived data reaches fmt\.Errorf`
}

package mapreduce

import (
	"bytes"
	"testing"
)

// FuzzWireDecode feeds arbitrary bytes to the package's vector decoder (the
// frame of broadcasts): it must reject malformed frames with an error (never
// panic or over-allocate), and any frame it accepts must re-encode to
// exactly the same bytes — the wire format is canonical, so decode is a
// bijection on the accepted set.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendVector(nil, []float64{0}))
	f.Add(appendVector(nil, []float64{1.5, -2.25, 0}))
	f.Add(appendVector(nil, []float64{3.14}))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		if v, err := decodeVectorInto(nil, b); err == nil {
			if re := appendVector(nil, v); !bytes.Equal(re, b) {
				t.Fatalf("vector payload not canonical: decode(%x) re-encodes to %x", b, re)
			}
		}
	})
}

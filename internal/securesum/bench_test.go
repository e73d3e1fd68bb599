package securesum

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/ppml-go/ppml/internal/fixedpoint"
)

func BenchmarkMaskedSum(b *testing.B) {
	codec := fixedpoint.Default()
	for _, m := range []int{2, 4, 8, 16} {
		for _, dim := range []int{10, 1000} {
			m, dim := m, dim
			b.Run(fmt.Sprintf("m=%d/dim=%d", m, dim), func(b *testing.B) {
				values := randomValues(rand.New(rand.NewSource(1)), m, dim, 100)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := maskedSum(values, codec, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkAppendShares1000(b *testing.B) {
	v := make([]uint64, 1000)
	for i := range v {
		v[i] = uint64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := AppendShares(nil, v)
		if _, err := DecodeShares(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeededShare is one learner's masked share at the vl_cohort_tcp
// shape: encode, expand m−1 pair keystreams, accumulate, wire-encode.
func BenchmarkSeededShare(b *testing.B) {
	const m, dim = 8, 4000
	ss := wireSeededSessions(b, m, dim, 1)
	value := randomValues(rand.New(rand.NewSource(1)), 1, dim, 100)[0]
	live := allLive(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ss[0].RoundShareBytesFor(int32(i), value, live); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(dim*(m-1)), "ns/elem/peer")
}

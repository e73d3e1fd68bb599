package paillier

import (
	"math/big"
	"testing"

	"github.com/ppml-go/ppml/internal/fixedpoint"
)

func BenchmarkEncrypt(b *testing.B) {
	m := big.NewInt(123456789)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := testKey.Encrypt(nil, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecrypt(b *testing.B) {
	c, err := testKey.Encrypt(nil, big.NewInt(123456789))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := testKey.Decrypt(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHomomorphicAdd(b *testing.B) {
	c1, err := testKey.Encrypt(nil, big.NewInt(1))
	if err != nil {
		b.Fatal(err)
	}
	c2, err := testKey.Encrypt(nil, big.NewInt(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		testKey.Add(c1, c2)
	}
}

// BenchmarkPaillierVector measures one vector's homomorphic aggregation
// round trip for a 64-dimensional contribution: fixed-point encode and
// encrypt on the mapper side, then fold a second share in and decrypt and
// decode the aggregate. The packed variant uses the full slot capacity of
// the modulus; unpacked forces width 1 (one value per ciphertext). The
// encode scratch buffer is reused across iterations.
func BenchmarkPaillierVector(b *testing.B) {
	key, err := GenerateKey(nil, 512)
	if err != nil {
		b.Fatal(err)
	}
	const dim, summands = 64, 4
	codec := fixedpoint.Default()
	contrib := make([]float64, dim)
	for i := range contrib {
		contrib[i] = float64(i%7) * 0.25
	}
	for _, bc := range []struct {
		name  string
		width int
	}{
		{"packed", 0},
		{"unpacked", 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			pack, err := NewPacking(&key.PublicKey, summands, bc.width)
			if err != nil {
				b.Fatal(err)
			}
			var enc []uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if enc, err = codec.ForSummands(summands).EncodeVec(contrib, enc); err != nil {
					b.Fatal(err)
				}
				cs, err := pack.EncryptVec(nil, enc)
				if err != nil {
					b.Fatal(err)
				}
				for j := range cs {
					cs[j] = key.Add(cs[j], cs[j])
				}
				sum, err := pack.DecryptVec(key, cs, dim, nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := codec.DecodeVec(sum, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pack.Ciphertexts(dim)), "ciphertexts")
		})
	}
}

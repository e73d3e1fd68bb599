package paillier

import (
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"sync"

	"github.com/ppml-go/ppml/internal/parallel"
)

// Slot packing (SPINDLE-style) for vector aggregation: instead of one
// ciphertext per vector element, k fixed-point ring elements are packed into
// one plaintext big.Int — slot i occupies bits [i·w, (i+1)·w) — so a
// d-dimensional vector costs ⌈d/k⌉ ciphertexts for every encrypt, add and
// decrypt, and proportionally fewer wire bytes.
//
// Overflow-headroom argument: each slot holds a value < 2⁶⁴ (the fixedpoint
// ring), and the aggregation adds at most maxSummands ciphertexts, so a slot
// sum is < maxSummands·2⁶⁴ ≤ 2^w with w = 64 + ⌈log₂ maxSummands⌉ guard
// bits. A sum therefore never carries into the neighboring slot, and the
// packed total stays < 2^(k·w) ≤ 2^(N.BitLen()−1) ≤ N, so the plaintext
// never wraps mod N either. After decryption, each slot is reduced mod 2⁶⁴,
// which is exactly the fixedpoint ring's wrapping addition — packed and
// per-element aggregation produce identical ring sums.

// Packing describes a slot layout for a given public key and aggregation
// fan-in. The zero value is not usable; construct with NewPacking.
type Packing struct {
	// Slots is the number of ring elements per plaintext (k above).
	Slots int
	// SlotBits is the slot width w in bits: 64 payload + guard bits.
	SlotBits int
	// MaxSummands is the maximum number of ciphertexts the aggregation may
	// homomorphically add (the guard-bit budget).
	MaxSummands int

	pk *PublicKey
}

// NewPacking computes a slot layout for pk that is safe for summing up to
// maxSummands ciphertexts. width caps the slot count: 0 (or negative) packs
// as many slots as the modulus allows; otherwise min(width, capacity) slots
// are used — width 1 degenerates to one value per ciphertext, which is the
// unpacked layout with range checking.
func NewPacking(pk *PublicKey, maxSummands, width int) (*Packing, error) {
	if maxSummands < 1 {
		return nil, fmt.Errorf("paillier packing: maxSummands %d, want ≥ 1", maxSummands)
	}
	w := 64 + bits.Len(uint(maxSummands-1))
	k := (pk.N.BitLen() - 1) / w
	if k < 1 {
		return nil, fmt.Errorf("%w: %d-bit modulus cannot hold one %d-bit slot",
			ErrKeySize, pk.N.BitLen(), w)
	}
	if width >= 1 && width < k {
		k = width
	}
	return &Packing{Slots: k, SlotBits: w, MaxSummands: maxSummands, pk: pk}, nil
}

// Ciphertexts returns the number of ciphertexts a d-element vector occupies
// under this layout: ⌈d/Slots⌉.
func (p *Packing) Ciphertexts(d int) int {
	return (d + p.Slots - 1) / p.Slots
}

// PackVec packs vals into ⌈len(vals)/Slots⌉ plaintexts. The final plaintext's
// unused high slots are zero.
func (p *Packing) PackVec(vals []uint64) []*big.Int {
	out := make([]*big.Int, 0, p.Ciphertexts(len(vals)))
	tmp := new(big.Int)
	for base := 0; base < len(vals); base += p.Slots {
		end := min(base+p.Slots, len(vals))
		m := new(big.Int)
		for s := end - 1; s >= base; s-- {
			m.Lsh(m, uint(p.SlotBits))
			tmp.SetUint64(vals[s])
			m.Or(m, tmp)
		}
		out = append(out, m)
	}
	return out
}

var mask64 = new(big.Int).SetUint64(^uint64(0))

// UnpackVec extracts d ring elements from packed plaintexts (as produced by
// PackVec, possibly after homomorphic addition), reducing each slot mod 2⁶⁴ —
// the fixedpoint ring's wrapping sum. dst is reused when it has capacity d,
// allocated otherwise.
func (p *Packing) UnpackVec(ms []*big.Int, d int, dst []uint64) ([]uint64, error) {
	if want := p.Ciphertexts(d); len(ms) != want {
		return nil, fmt.Errorf("paillier packing: %d plaintexts for %d elements, want %d",
			len(ms), d, want)
	}
	if cap(dst) < d {
		dst = make([]uint64, d)
	}
	dst = dst[:d]
	work := new(big.Int)
	slot := new(big.Int)
	for mi, m := range ms {
		base := mi * p.Slots
		end := min(base+p.Slots, d)
		work.Set(m)
		for i := base; i < end; i++ {
			slot.And(work, mask64)
			dst[i] = slot.Uint64()
			work.Rsh(work, uint(p.SlotBits))
		}
	}
	return dst, nil
}

// EncryptVec packs vals and encrypts each packed plaintext, returning
// ⌈len(vals)/Slots⌉ ciphertexts. The encryptions are independent, one modular
// exponentiation each — by far the most expensive per-element operation in
// the system, which is why ⌈d/k⌉ of them instead of d is the headline HE win
// — so they run on the parallel worker pool, and random must be safe for
// concurrent use (nil means crypto/rand, which is).
func (p *Packing) EncryptVec(random io.Reader, vals []uint64) ([]*big.Int, error) {
	ms := p.PackVec(vals)
	out := make([]*big.Int, len(ms))
	err := forEach(len(ms), func(i int) (err error) {
		out[i], err = p.pk.Encrypt(random, ms[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DecryptVec decrypts packed ciphertexts on the parallel worker pool and
// unpacks d ring elements into dst (reused when capacity suffices).
func (p *Packing) DecryptVec(sk *PrivateKey, cs []*big.Int, d int, dst []uint64) ([]uint64, error) {
	if want := p.Ciphertexts(d); len(cs) != want {
		return nil, fmt.Errorf("paillier packing: %d ciphertexts for %d elements, want %d",
			len(cs), d, want)
	}
	ms := make([]*big.Int, len(cs))
	err := forEach(len(cs), func(i int) (err error) {
		ms[i], err = sk.Decrypt(cs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return p.UnpackVec(ms, d, dst)
}

// forEach runs f(i) for every i in [0, n) on the parallel worker pool and
// returns the first error a call reported; a block stops at its first error.
func forEach(n int, f func(i int) error) error {
	var mu sync.Mutex
	var first error
	parallel.For(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := f(i); err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
				return
			}
		}
	})
	return first
}

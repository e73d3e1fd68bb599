// Package paillier implements the Paillier additively homomorphic
// cryptosystem on top of math/big and crypto/rand. It serves as the
// alternative Reducer aggregation backend: Mappers encrypt their local
// results under a shared public key, the Reducer multiplies ciphertexts
// (homomorphic addition) without learning any plaintext, and a designated
// key holder decrypts only the aggregate. The overhead ablation
// (BenchmarkAggregatorOverhead) quantifies the paper's claim that a few
// cheap masking operations beat public-key homomorphic aggregation by orders
// of magnitude.
//
// The implementation uses the standard g = n+1 simplification, so
// Enc(m; r) = (1 + m·n)·rⁿ mod n², Dec(c) = L(c^λ mod n²)·μ mod n with
// L(x) = (x−1)/n.
package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Errors returned by the cryptosystem.
var (
	// ErrMessageRange indicates a plaintext outside [0, N).
	ErrMessageRange = errors.New("paillier: message out of range")
	// ErrBadCiphertext indicates a ciphertext outside (0, N²) or not
	// decryptable.
	ErrBadCiphertext = errors.New("paillier: bad ciphertext")
	// ErrKeySize indicates an unsupported key size.
	ErrKeySize = errors.New("paillier: key size too small")
)

var one = big.NewInt(1)

// PublicKey allows encryption and homomorphic operations.
type PublicKey struct {
	N  *big.Int // modulus
	N2 *big.Int // N²
}

// PrivateKey additionally allows decryption.
type PrivateKey struct {
	PublicKey
	lambda *big.Int // lcm(p−1, q−1)
	mu     *big.Int // (L(g^λ mod N²))⁻¹ mod N
}

// GenerateKey creates a key pair with an N of approximately bits bits.
// bits must be at least 256; use ≥ 2048 for real deployments — smaller keys
// are acceptable only in simulations and tests.
func GenerateKey(random io.Reader, bits int) (*PrivateKey, error) {
	if bits < 256 {
		return nil, fmt.Errorf("%w: %d bits, want ≥ 256", ErrKeySize, bits)
	}
	if random == nil {
		random = rand.Reader
	}
	for {
		p, err := rand.Prime(random, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier keygen: %w", err)
		}
		q, err := rand.Prime(random, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier keygen: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		pm1 := new(big.Int).Sub(p, one)
		qm1 := new(big.Int).Sub(q, one)
		gcd := new(big.Int).GCD(nil, nil, pm1, qm1)
		lambda := new(big.Int).Mul(pm1, qm1)
		lambda.Div(lambda, gcd)

		n2 := new(big.Int).Mul(n, n)
		// With g = n+1: g^λ mod n² = 1 + λ·n (binomial), so
		// L(g^λ) = λ mod n and μ = λ⁻¹ mod n.
		mu := new(big.Int).ModInverse(new(big.Int).Mod(lambda, n), n)
		if mu == nil {
			continue // gcd(λ, n) ≠ 1; re-draw primes
		}
		return &PrivateKey{
			PublicKey: PublicKey{N: n, N2: n2},
			lambda:    lambda,
			mu:        mu,
		}, nil
	}
}

// Encrypt encrypts m ∈ [0, N) with fresh randomness from random (crypto/rand
// when nil).
func (pk *PublicKey) Encrypt(random io.Reader, m *big.Int) (*big.Int, error) {
	if m.Sign() < 0 || m.Cmp(pk.N) >= 0 {
		return nil, fmt.Errorf("%w: m has %d bits, modulus %d bits", ErrMessageRange, m.BitLen(), pk.N.BitLen())
	}
	if random == nil {
		random = rand.Reader
	}
	r, err := randomUnit(random, pk.N)
	if err != nil {
		return nil, err
	}
	// c = (1 + m·N)·r^N mod N²
	c := new(big.Int).Mul(m, pk.N)
	c.Add(c, one)
	c.Mod(c, pk.N2)
	rn := new(big.Int).Exp(r, pk.N, pk.N2)
	c.Mul(c, rn)
	c.Mod(c, pk.N2)
	return c, nil
}

// Decrypt recovers the plaintext of c.
func (sk *PrivateKey) Decrypt(c *big.Int) (*big.Int, error) {
	if c.Sign() <= 0 || c.Cmp(sk.N2) >= 0 {
		return nil, ErrBadCiphertext
	}
	// m = L(c^λ mod N²)·μ mod N
	x := new(big.Int).Exp(c, sk.lambda, sk.N2)
	x.Sub(x, one)
	x.Div(x, sk.N)
	x.Mul(x, sk.mu)
	x.Mod(x, sk.N)
	return x, nil
}

// Add returns a ciphertext of the sum of the two plaintexts: c1·c2 mod N².
func (pk *PublicKey) Add(c1, c2 *big.Int) *big.Int {
	out := new(big.Int).Mul(c1, c2)
	return out.Mod(out, pk.N2)
}

// randomUnit draws r uniformly from [1, n) with gcd(r, n) = 1.
func randomUnit(random io.Reader, n *big.Int) (*big.Int, error) {
	gcd := new(big.Int)
	for {
		r, err := rand.Int(random, n)
		if err != nil {
			return nil, fmt.Errorf("paillier randomness: %w", err)
		}
		if r.Sign() == 0 {
			continue
		}
		if gcd.GCD(nil, nil, r, n).Cmp(one) == 0 {
			return r, nil
		}
	}
}

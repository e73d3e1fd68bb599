package paillier

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"
)

// testKey generates a small (fast) key once per test binary.
var testKey = mustKey()

func mustKey() *PrivateKey {
	k, err := GenerateKey(nil, 512)
	if err != nil {
		panic(err)
	}
	return k
}

func TestGenerateKeyTooSmall(t *testing.T) {
	if _, err := GenerateKey(nil, 128); !errors.Is(err, ErrKeySize) {
		t.Errorf("small key: err = %v, want ErrKeySize", err)
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	for _, m := range []int64{0, 1, 42, 1 << 40} {
		c, err := testKey.Encrypt(nil, big.NewInt(m))
		if err != nil {
			t.Fatalf("Encrypt(%d): %v", m, err)
		}
		got, err := testKey.Decrypt(c)
		if err != nil {
			t.Fatalf("Decrypt: %v", err)
		}
		if got.Int64() != m {
			t.Errorf("round trip %d -> %v", m, got)
		}
	}
}

func TestEncryptionIsRandomized(t *testing.T) {
	m := big.NewInt(7)
	c1, err := testKey.Encrypt(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := testKey.Encrypt(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Cmp(c2) == 0 {
		t.Error("two encryptions of the same plaintext are identical (IND-CPA broken)")
	}
}

func TestMessageRange(t *testing.T) {
	if _, err := testKey.Encrypt(nil, big.NewInt(-1)); !errors.Is(err, ErrMessageRange) {
		t.Errorf("negative m: err = %v, want ErrMessageRange", err)
	}
	if _, err := testKey.Encrypt(nil, new(big.Int).Set(testKey.N)); !errors.Is(err, ErrMessageRange) {
		t.Errorf("m = N: err = %v, want ErrMessageRange", err)
	}
}

func TestBadCiphertext(t *testing.T) {
	if _, err := testKey.Decrypt(big.NewInt(0)); !errors.Is(err, ErrBadCiphertext) {
		t.Errorf("zero ciphertext: err = %v, want ErrBadCiphertext", err)
	}
	if _, err := testKey.Decrypt(new(big.Int).Set(testKey.N2)); !errors.Is(err, ErrBadCiphertext) {
		t.Errorf("c = N²: err = %v, want ErrBadCiphertext", err)
	}
}

func TestHomomorphicAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		a := rng.Int63()
		b := rng.Int63()
		ca, err := testKey.Encrypt(nil, big.NewInt(a))
		if err != nil {
			t.Fatal(err)
		}
		cb, err := testKey.Encrypt(nil, big.NewInt(b))
		if err != nil {
			t.Fatal(err)
		}
		sum, err := testKey.Decrypt(testKey.Add(ca, cb))
		if err != nil {
			t.Fatal(err)
		}
		want := new(big.Int).Add(big.NewInt(a), big.NewInt(b))
		if sum.Cmp(want) != 0 {
			t.Errorf("trial %d: Dec(Enc(a)·Enc(b)) = %v, want %v", trial, sum, want)
		}
	}
}

func TestAggregateManyCiphertexts(t *testing.T) {
	// The Reducer's actual access pattern: multiply M ciphertexts, decrypt
	// once, recover the exact sum.
	rng := rand.New(rand.NewSource(2))
	total := new(big.Int)
	acc, err := testKey.Encrypt(nil, big.NewInt(0))
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 8; m++ {
		v := big.NewInt(rng.Int63())
		total.Add(total, v)
		c, err := testKey.Encrypt(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		acc = testKey.Add(acc, c)
	}
	got, err := testKey.Decrypt(acc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(total) != 0 {
		t.Errorf("aggregate = %v, want %v", got, total)
	}
}

func TestCiphertextWireRoundTrip(t *testing.T) {
	cs := make([]*big.Int, 5)
	for i := range cs {
		c, err := testKey.Encrypt(nil, big.NewInt(int64(i*1000)))
		if err != nil {
			t.Fatal(err)
		}
		cs[i] = c
	}
	buf := MarshalCiphertexts(cs)
	back, err := UnmarshalCiphertexts(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(cs) {
		t.Fatalf("got %d ciphertexts, want %d", len(back), len(cs))
	}
	for i := range cs {
		if back[i].Cmp(cs[i]) != 0 {
			t.Fatalf("ciphertext %d changed on the wire", i)
		}
		m, err := testKey.Decrypt(back[i])
		if err != nil {
			t.Fatal(err)
		}
		if m.Int64() != int64(i*1000) {
			t.Errorf("decrypted %v, want %d", m, i*1000)
		}
	}
}

func TestUnmarshalCiphertextsErrors(t *testing.T) {
	cases := [][]byte{
		nil,                      // empty
		{0x05},                   // count without data
		{0x01, 0x08, 0x01, 0x02}, // truncated element
		append(MarshalCiphertexts([]*big.Int{big.NewInt(1)}), 0xFF), // trailing bytes
	}
	for i, in := range cases {
		if _, err := UnmarshalCiphertexts(in); !errors.Is(err, ErrBadCiphertext) {
			t.Errorf("case %d: err = %v, want ErrBadCiphertext", i, err)
		}
	}
}

package securesum

import (
	"bytes"
	"context"
	"crypto/aes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/ppml-go/ppml/internal/fixedpoint"
	"github.com/ppml-go/ppml/internal/transport"
)

// wireSeededSessions builds m seeded sessions and exchanges every pairwise
// seed in memory, exactly as SetupSeeded would over a transport.
func wireSeededSessions(t testing.TB, m, dim int, session uint64) []*SeededSession {
	t.Helper()
	codec := fixedpoint.Default()
	ss := make([]*SeededSession, m)
	for i := range ss {
		s, err := NewSeededSession(i, m, dim, session, codec, detRand(int64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		ss[i] = s
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i == j {
				continue
			}
			seed, err := ss[i].SeedFor(j)
			if err != nil {
				t.Fatal(err)
			}
			if err := ss[j].SetPeerSeed(i, seed); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ss
}

func TestSeededSumMatchesPlain(t *testing.T) {
	// The seeded masks must telescope at the Reducer exactly like the literal
	// masks: summing every party's full-roster share recovers the plain sum, round
	// after round from the same one-time seed exchange.
	const m, dim = 4, 6
	codec := fixedpoint.Default()
	rng := rand.New(rand.NewSource(21))
	ss := wireSeededSessions(t, m, dim, 9)
	for round := int32(0); round < 3; round++ {
		values := randomValues(rng, m, dim, 50)
		col, err := NewCollector(m, dim, codec)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < m; i++ {
			share, err := ss[i].RoundShareFor(round, values[i], allLive(m))
			if err != nil {
				t.Fatal(err)
			}
			if err := col.Add(share); err != nil {
				t.Fatal(err)
			}
		}
		got, err := col.Sum()
		if err != nil {
			t.Fatal(err)
		}
		want := plainSum(values)
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-6 {
				t.Fatalf("round %d element %d: %g, want %g", round, j, got[j], want[j])
			}
		}
	}
}

// allLive is the full-cohort roster.
func allLive(m int) []bool {
	live := make([]bool, m)
	for i := range live {
		live[i] = true
	}
	return live
}

// testPairKey is a fixed 32-byte pair key for the PRG-level tests.
func testPairKey() []byte {
	key := make([]byte, SeedSize)
	for i := range key {
		key[i] = byte(i * 7)
	}
	return key
}

func TestSeededMasksDistinctAcrossRounds(t *testing.T) {
	// Satellite privacy check: the derived mask for the same pair must differ
	// between any two rounds — a repeated mask would let the Reducer
	// difference two rounds' shares and learn w_i(t+1) − w_i(t).
	prg, err := newPairPRG(testPairKey())
	if err != nil {
		t.Fatal(err)
	}
	const size = 5 * 8
	const rounds = 64
	seen := make(map[string]int32, rounds)
	buf := make([]byte, size, size+gcmTagSize)
	for round := int32(0); round < rounds; round++ {
		prg.keystream(3, round, buf)
		if prev, dup := seen[string(buf)]; dup {
			t.Fatalf("rounds %d and %d derived the identical mask %x", prev, round, buf)
		}
		seen[string(buf)] = round
	}
	// Distinct sessions must also diverge, even at the same round.
	other := make([]byte, size, size+gcmTagSize)
	prg.keystream(3, 0, buf)
	prg.keystream(4, 0, other)
	if bytes.Equal(buf, other) {
		t.Fatal("sessions 3 and 4 derived the identical round-0 mask")
	}
}

func TestSeededKeystreamMatchesSpec(t *testing.T) {
	// The documented counter layout, recomputed one block at a time with
	// plain AES: block k of (session, round) encrypts session ‖ round ‖ k+2,
	// all big-endian. Mask derivation is part of the protocol version, so the
	// bulk path may change its mechanism but never these bytes.
	key := testPairKey()
	block, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	prg, err := newPairPRG(key)
	if err != nil {
		t.Fatal(err)
	}
	const session, round = 0x0102030405060708, int32(0x0A0B0C0D)
	for _, dim := range []int{1, 2, 3, 31, 4001} {
		want := make([]byte, (8*dim+aes.BlockSize-1)/aes.BlockSize*aes.BlockSize)
		var ctr [aes.BlockSize]byte
		binary.BigEndian.PutUint64(ctr[0:], session)
		binary.BigEndian.PutUint32(ctr[8:], uint32(round))
		for k := 0; k*aes.BlockSize < len(want); k++ {
			binary.BigEndian.PutUint32(ctr[12:], uint32(k+2))
			block.Encrypt(want[k*aes.BlockSize:], ctr[:])
		}
		got := make([]byte, 8*dim, 8*dim+gcmTagSize)
		for i := range got {
			got[i] = 0xA5 // stale scratch must not leak into the stream
		}
		prg.keystream(session, round, got)
		if !bytes.Equal(got, want[:8*dim]) {
			t.Errorf("dim %d: bulk keystream differs from per-block AES over session‖round‖k+2", dim)
		}
	}
}

func TestSeededBothEndsAgree(t *testing.T) {
	// Both ends of a pair key their PRG with the XOR of the two seeds, so
	// they derive the same stream whichever end installs its peer's seed
	// first, and the lower id adds exactly what the higher id subtracts.
	const dim, session = 5, 5
	codec := fixedpoint.Default()
	for _, order := range [][2]int{{0, 1}, {1, 0}} {
		var ends [2]*SeededSession
		var seeds [2][]byte // seeds[i] is what end i sends to the other
		for i := range ends {
			var err error
			if ends[i], err = NewSeededSession(i, 2, dim, session, codec, detRand(int64(1+i))); err != nil {
				t.Fatal(err)
			}
			if seeds[i], err = ends[i].SeedFor(1 - i); err != nil {
				t.Fatal(err)
			}
		}
		for _, i := range order {
			if err := ends[i].SetPeerSeed(1-i, seeds[1-i]); err != nil {
				t.Fatal(err)
			}
		}
		lo, hi := ends[0], ends[1]
		zero := make([]float64, dim)
		for round := int32(0); round < 4; round++ {
			lo.pair[1].keystream(session, round, lo.ks[:8*dim])
			hi.pair[0].keystream(session, round, hi.ks[:8*dim])
			if !bytes.Equal(lo.ks[:8*dim], hi.ks[:8*dim]) {
				t.Fatalf("order %v round %d: the two ends derived different keystreams", order, round)
			}
			stream := append([]byte(nil), lo.ks[:8*dim]...)
			added, err := lo.RoundShareFor(round, zero, allLive(2))
			if err != nil {
				t.Fatal(err)
			}
			subtracted, err := hi.RoundShareFor(round, zero, allLive(2))
			if err != nil {
				t.Fatal(err)
			}
			for k := range added {
				w := binary.LittleEndian.Uint64(stream[8*k:])
				if added[k] != w || subtracted[k] != -w {
					t.Fatalf("round %d element %d: shares %x / %x, want +/- %x", round, k, added[k], subtracted[k], w)
				}
			}
		}
	}
}

func TestSeededRosterSubsetsCancelExactly(t *testing.T) {
	// Bit-exact cancellation in Z_2^64 over every roster of size >= 2: the
	// ring sum of the masked shares equals the ring sum of the raw encodings,
	// at an odd dim so the half-used last AES block is covered.
	const dim, session = 7, 77
	codec := fixedpoint.Default()
	rng := rand.New(rand.NewSource(41))
	for m := 2; m <= 5; m++ {
		ss := wireSeededSessions(t, m, dim, session)
		values := randomValues(rng, m, dim, 50)
		for roster := 1; roster < 1<<m; roster++ {
			live := make([]bool, m)
			n := 0
			for i := range live {
				live[i] = roster>>i&1 == 1
				if live[i] {
					n++
				}
			}
			if n < 2 {
				continue
			}
			got := make([]uint64, dim)
			want := make([]uint64, dim)
			for i := 0; i < m; i++ {
				if !live[i] {
					continue
				}
				share, err := ss[i].RoundShareFor(int32(roster), values[i], live)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := codec.EncodeVec(values[i], nil)
				if err != nil {
					t.Fatal(err)
				}
				for k := range got {
					got[k] += share[k]
					want[k] += raw[k]
				}
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("m=%d roster %05b element %d: ring sum %x, want %x", m, roster, k, got[k], want[k])
				}
			}
		}
	}
}

// TestSeededRandomRostersCancelExactly extends the exhaustive small-cohort
// walk above to cohorts of 8, 16 and 64 with rosters drawn from a fixed,
// logged generator seed. Each round declares a roster R₁, then shrinks it to
// R₂ ⊂ R₁ within the same round, as the elastic Reducer does when a member
// misses its share window: the survivors re-derive under the same (session,
// round) nonce. Over both rosters the Collector's ring sum must equal the
// ring sum of the members' plain encodings bit for bit, and over the full
// cohort it must also equal the literal protocol's (Party's) ring sum.
func TestSeededRandomRostersCancelExactly(t *testing.T) {
	const dim, session, rounds, genSeed = 5, 31, 6, 20250601
	t.Logf("roster generator seed %d", genSeed)
	rng := rand.New(rand.NewSource(genSeed))
	for _, m := range []int{8, 16, 64} {
		ss := wireSeededSessions(t, m, dim, session)
		values := randomValues(rng, m, dim, 50)
		codec := ss[0].codec
		col, err := NewCollector(m, dim, codec)
		if err != nil {
			t.Fatal(err)
		}
		// fold sums the shares of roster over col and checks the ring sum.
		fold := func(round int32, live []bool, stage string) {
			t.Helper()
			n := count(live)
			if err := col.ResetFor(n); err != nil {
				t.Fatal(err)
			}
			want := make([]uint64, dim)
			for i, l := range live {
				if !l {
					continue
				}
				share, err := ss[i].RoundShareFor(round, values[i], live)
				if err != nil {
					t.Fatal(err)
				}
				if err := col.Add(share); err != nil {
					t.Fatal(err)
				}
				raw, err := codec.EncodeVec(values[i], nil)
				if err != nil {
					t.Fatal(err)
				}
				for k := range want {
					want[k] += raw[k]
				}
			}
			for k := range want {
				if col.acc[k] != want[k] {
					t.Fatalf("m=%d round %d %s roster of %d: ring sum[%d] = %x, want %x", m, round, stage, n, k, col.acc[k], want[k])
				}
			}
		}
		for round := int32(0); round < rounds; round++ {
			// R₁: each member in with a probability drawn per round, at least
			// three, so R₂ can lose one and keep the masked quorum floor of two.
			p := 0.2 + 0.8*rng.Float64()
			r1 := make([]bool, m)
			for i := range r1 {
				r1[i] = rng.Float64() < p
			}
			for count(r1) < 3 {
				r1[rng.Intn(m)] = true
			}
			fold(round, r1, "R1")
			// R₂ ⊂ R₁: drop at least one member, keep at least two.
			r2 := append([]bool(nil), r1...)
			for drop := 1 + rng.Intn(count(r1)-2); drop > 0; {
				if i := rng.Intn(m); r2[i] {
					r2[i] = false
					drop--
				}
			}
			fold(round, r2, "R2")
		}
		fold(rounds, allLive(m), "full")
		literal, err := NewCollector(m, dim, codec)
		if err != nil {
			t.Fatal(err)
		}
		parties := make([]*Party, m)
		masks := make([][][]uint64, m)
		for i := range parties {
			if parties[i], err = NewParty(i, m, dim, codec, nil); err != nil {
				t.Fatal(err)
			}
			if masks[i], err = parties[i].MaskForAll(); err != nil {
				t.Fatal(err)
			}
		}
		for i, p := range parties {
			for j := range parties {
				if j != i {
					if err := p.SetPeerMask(j, masks[j][i]); err != nil {
						t.Fatal(err)
					}
				}
			}
			share, err := p.Share(values[i])
			if err != nil {
				t.Fatal(err)
			}
			if err := literal.Add(share); err != nil {
				t.Fatal(err)
			}
		}
		for k := range literal.acc {
			if literal.acc[k] != col.acc[k] {
				t.Fatalf("m=%d full cohort: literal ring sum[%d] = %x, seeded %x", m, k, literal.acc[k], col.acc[k])
			}
		}
	}
}

// count is the size of a roster.
func count(live []bool) int {
	n := 0
	for _, l := range live {
		if l {
			n++
		}
	}
	return n
}

func TestSeededShareZeroAlloc(t *testing.T) {
	// The round hot path at the vl_cohort_tcp shape: after the first call has
	// sized the share and wire scratch, a round allocates nothing.
	const m, dim = 8, 4000
	ss := wireSeededSessions(t, m, dim, 3)
	value := randomValues(rand.New(rand.NewSource(5)), 1, dim, 100)[0]
	live := allLive(m)
	round := int32(0)
	share := func() {
		if _, err := ss[3].RoundShareBytesFor(round, value, live); err != nil {
			t.Fatal(err)
		}
		round++
	}
	share()
	if allocs := testing.AllocsPerRun(20, share); allocs != 0 {
		t.Errorf("RoundShareBytesFor allocates %.1f times per round, want 0", allocs)
	}
}

func TestSeededSessionErrors(t *testing.T) {
	codec := fixedpoint.Default()
	if _, err := NewSeededSession(2, 2, 3, 1, codec, detRand(1)); !errors.Is(err, ErrBadParty) {
		t.Errorf("id out of range: %v", err)
	}
	if _, err := NewSeededSession(0, 2, 0, 1, codec, detRand(1)); !errors.Is(err, ErrBadParty) {
		t.Errorf("zero dim: %v", err)
	}
	// One element past what a (session, round) nonce's 32-bit block counter
	// can cover: rejected up front, never a silently repeating keystream.
	if tooLong := uint64(maxSeededDim) + 1; uint64(int(tooLong)) == tooLong {
		if _, err := NewSeededSession(0, 2, int(tooLong), 1, codec, detRand(1)); !errors.Is(err, ErrBadParty) {
			t.Errorf("dim past the keystream: %v", err)
		}
	}
	s, err := NewSeededSession(0, 3, 3, 1, codec, detRand(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SeedFor(0); !errors.Is(err, ErrBadParty) {
		t.Errorf("seed for self: %v", err)
	}
	if err := s.SetPeerSeed(1, make([]byte, SeedSize-1)); !errors.Is(err, ErrProtocol) {
		t.Errorf("short seed: %v", err)
	}
	if err := s.SetPeerSeed(1, make([]byte, SeedSize)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetPeerSeed(1, make([]byte, SeedSize)); !errors.Is(err, ErrProtocol) {
		t.Errorf("duplicate seed: %v", err)
	}
	// One peer seed still missing: the round must refuse to run.
	if _, err := s.RoundShareFor(0, []float64{1, 2, 3}, allLive(3)); !errors.Is(err, ErrIncomplete) {
		t.Errorf("round with missing seeds: %v", err)
	}
	if err := s.SetPeerSeed(2, make([]byte, SeedSize)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RoundShareFor(0, []float64{1, 2}, allLive(3)); !errors.Is(err, ErrBadParty) {
		t.Errorf("wrong dim value: %v", err)
	}
}

func TestSeededShareHidesValue(t *testing.T) {
	// With all pairwise seeds unknown to the Reducer, the emitted share must
	// not equal the raw fixed-point encoding of the value.
	codec := fixedpoint.Default()
	ss := wireSeededSessions(t, 3, 3, 11)
	value := []float64{42.5, -1.25, 0}
	share, err := ss[0].RoundShareFor(0, value, allLive(3))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := codec.EncodeVec(value, nil)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for k := range raw {
		if share[k] != raw[k] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeded share equals the raw encoding — value not masked")
	}
}

// runSeededRounds executes a seeded session over a transport: one seed
// handshake, then `rounds` aggregation rounds. Returns the last round's sum.
func runSeededRounds(t *testing.T, net transport.Network, values [][]float64, rounds int) []float64 {
	t.Helper()
	codec := fixedpoint.Default()
	m := len(values)
	dim := len(values[0])
	const session = 12
	names := make([]string, m)
	for i := range names {
		names[i] = fmt.Sprintf("mapper-%d", i)
	}
	const reducer = "reducer"
	red, err := net.Endpoint(reducer)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]transport.Endpoint, m)
	for i := range eps {
		ep, err := net.Endpoint(names[i])
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// RoundShareBytes reuses its wire buffer across rounds, which is safe
	// only under the driver's lockstep (round r is consumed before round r+1
	// is produced). Emulate that here: each mapper waits for a token the
	// collector hands out after finishing the previous round. Each mapper
	// has its own token channel: with one shared channel a fast mapper could
	// take a slow one's token, run a round ahead over the buffer the
	// collector is still decoding, and starve the slow one of its share.
	tokens := make([]chan struct{}, m)
	for i := range tokens {
		tokens[i] = make(chan struct{}, rounds)
	}
	errs := make(chan error, m)
	for i := 0; i < m; i++ {
		go func(i int) {
			s, err := SetupSeeded(ctx, eps[i], names, i, dim, codec, nil, transport.Header{Session: session}, nil)
			if err != nil {
				errs <- err
				return
			}
			for round := 0; round < rounds; round++ {
				if round > 0 {
					<-tokens[i]
				}
				hdr := transport.Header{Session: session, Round: int32(round)}
				payload, err := s.RoundShareBytes(int32(round), values[i])
				if err != nil {
					errs <- err
					return
				}
				if err := eps[i].Send(ctx, reducer, KindShare, hdr, payload); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(i)
	}
	var sum []float64
	for round := 0; round < rounds; round++ {
		hdr := transport.Header{Session: session, Round: int32(round)}
		sum, err = RunCollector(ctx, red, m, dim, codec, hdr)
		if err != nil {
			t.Fatalf("collector round %d: %v", round, err)
		}
		for _, tok := range tokens {
			tok <- struct{}{}
		}
	}
	for i := 0; i < m; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("party: %v", err)
		}
	}
	return sum
}

func TestSeededDistributedInProc(t *testing.T) {
	net := transport.NewInProc()
	defer net.Close()
	rng := rand.New(rand.NewSource(31))
	values := randomValues(rng, 4, 6, 50)
	got := runSeededRounds(t, net, values, 3)
	want := plainSum(values)
	for j := range want {
		if math.Abs(got[j]-want[j]) > 1e-6 {
			t.Fatalf("element %d: %g, want %g", j, got[j], want[j])
		}
	}
}

func TestSeededTrafficShape(t *testing.T) {
	// The whole point of seeded masks: m(m−1) seed messages once per session,
	// then exactly m share messages per round — no mask traffic.
	net := transport.NewInProc()
	defer net.Close()
	const m, dim, rounds = 4, 6, 5
	rng := rand.New(rand.NewSource(32))
	values := randomValues(rng, m, dim, 10)
	runSeededRounds(t, net, values, rounds)
	st := net.Stats()
	wantMsgs := int64(m*(m-1) + rounds*m)
	if st.Messages != wantMsgs {
		t.Errorf("messages = %d, want %d (m(m-1) seeds + rounds*m shares)", st.Messages, wantMsgs)
	}
	wantBytes := int64(m*(m-1)*SeedSize + rounds*m*8*dim)
	if st.Bytes != wantBytes {
		t.Errorf("bytes = %d, want %d", st.Bytes, wantBytes)
	}
}

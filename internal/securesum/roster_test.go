package securesum

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/ppml-go/ppml/internal/fixedpoint"
)

// TestSeededRoundShareForCancels checks the heart of the elastic protocol:
// when every live party derives its share over the SAME partial roster, the
// pairwise masks cancel and the Reducer recovers exactly the live sum — the
// dead parties' seeds simply go unused.
func TestSeededRoundShareForCancels(t *testing.T) {
	const m, dim = 6, 5
	codec := fixedpoint.Default()
	//ppml:deterministic-ok test vectors, not protocol randomness
	rng := rand.New(rand.NewSource(7))

	sessions := make([]*SeededSession, m)
	for i := range sessions {
		s, err := NewSeededSession(i, m, dim, 99, codec, nil)
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	// Full pairwise seed exchange (elastic mode still does setup over the
	// whole cohort; dropouts happen later).
	for i := range sessions {
		for j := range sessions {
			if i == j {
				continue
			}
			seed, err := sessions[i].SeedFor(j)
			if err != nil {
				t.Fatal(err)
			}
			if err := sessions[j].SetPeerSeed(i, seed); err != nil {
				t.Fatal(err)
			}
		}
	}
	values := make([][]float64, m)
	for i := range values {
		values[i] = make([]float64, dim)
		for k := range values[i] {
			values[i][k] = rng.Float64()*4 - 2
		}
	}

	cases := [][]bool{
		{true, true, true, true, true, true},     // full cohort
		{true, true, false, true, true, true},    // one dead
		{true, false, false, true, false, true},  // half the cohort gone
		{true, true, false, false, false, false}, // quorum of two
	}
	for ci, live := range cases {
		for round := int32(0); round < 3; round++ {
			n := 0
			for _, l := range live {
				if l {
					n++
				}
			}
			col, err := NewCollector(m, dim, codec)
			if err != nil {
				t.Fatal(err)
			}
			if err := col.ResetFor(n); err != nil {
				t.Fatal(err)
			}
			want := make([]float64, dim)
			for i, s := range sessions {
				if !live[i] {
					continue
				}
				share, err := s.RoundShareFor(round, values[i], live)
				if err != nil {
					t.Fatalf("case %d party %d: %v", ci, i, err)
				}
				if err := col.Add(share); err != nil {
					t.Fatal(err)
				}
				for k := range want {
					want[k] += values[i][k]
				}
			}
			got, err := col.Sum()
			if err != nil {
				t.Fatal(err)
			}
			for k := range got {
				if math.Abs(got[k]-want[k]) > 1e-6 {
					t.Fatalf("case %d round %d: sum[%d] = %g, want %g", ci, round, k, got[k], want[k])
				}
			}
		}
	}
}

// TestSeededRoundShareForMismatchedRostersPoison documents the protocol
// invariant the roster-equality filter enforces: if two live parties fold
// DIFFERENT rosters, the telescope does not cancel.
func TestSeededRoundShareForMismatchedRostersPoison(t *testing.T) {
	const m, dim = 3, 2
	codec := fixedpoint.Default()
	sessions := make([]*SeededSession, m)
	for i := range sessions {
		s, err := NewSeededSession(i, m, dim, 5, codec, nil)
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	for i := range sessions {
		for j := range sessions {
			if i == j {
				continue
			}
			seed, _ := sessions[i].SeedFor(j)
			if err := sessions[j].SetPeerSeed(i, seed); err != nil {
				t.Fatal(err)
			}
		}
	}
	values := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	col, _ := NewCollector(m, dim, codec)
	if err := col.ResetFor(2); err != nil {
		t.Fatal(err)
	}
	// Party 0 folds {0,1}; party 1 wrongly folds the full roster.
	s0, err := sessions[0].RoundShareFor(0, values[0], []bool{true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Add(s0); err != nil {
		t.Fatal(err)
	}
	s1, err := sessions[1].RoundShareFor(0, values[1], []bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Add(s1); err != nil {
		t.Fatal(err)
	}
	got, err := col.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-4) < 1e-6 && math.Abs(got[1]-6) < 1e-6 {
		t.Fatal("mismatched rosters produced a clean sum; masks should not have cancelled")
	}
}

func TestRoundShareForValidation(t *testing.T) {
	codec := fixedpoint.Default()
	s, err := NewSeededSession(0, 3, 2, 1, codec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RoundShareFor(0, []float64{1, 2}, []bool{true, true}); err == nil {
		t.Fatal("short roster must be rejected")
	}
	if _, err := s.RoundShareFor(0, []float64{1, 2}, []bool{false, true, true}); err == nil {
		t.Fatal("a party outside its own roster must be rejected")
	}
}

// TestPartyShareIncomplete: a peer's mask missing in either direction makes
// the share ErrIncomplete rather than silently wrong — it could not cancel at
// the Reducer.
func TestPartyShareIncomplete(t *testing.T) {
	const m, dim = 3, 2
	codec := fixedpoint.Default()
	value := []float64{1, 2}
	p, err := NewParty(0, m, dim, codec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Share(value); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("share before any mask: err = %v, want ErrIncomplete", err)
	}
	if _, err := p.MaskForAll(); err != nil {
		t.Fatal(err)
	}
	if err := p.SetPeerMask(1, make([]uint64, dim)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Share(value); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("share without peer 2's mask: err = %v, want ErrIncomplete", err)
	}
	if err := p.SetPeerMask(2, make([]uint64, dim)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Share(value); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorResetFor(t *testing.T) {
	codec := fixedpoint.Default()
	col, err := NewCollector(4, 2, codec)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.ResetFor(0); err == nil {
		t.Fatal("ResetFor(0) must be rejected")
	}
	if err := col.ResetFor(5); err == nil {
		t.Fatal("ResetFor above the cohort size must be rejected")
	}
	if err := col.ResetFor(2); err != nil {
		t.Fatal(err)
	}
	share, err := codec.EncodeVec([]float64{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Add(share); err != nil {
		t.Fatal(err)
	}
	if _, err := col.Sum(); err == nil {
		t.Fatal("sum before the roster completes must be ErrIncomplete")
	}
	if err := col.Add(share); err != nil {
		t.Fatal(err)
	}
	if _, err := col.Sum(); err != nil {
		t.Fatal(err)
	}
	// Shrinking for one round does not cap later rounds: the full cohort is
	// still expressible.
	if err := col.ResetFor(4); err != nil {
		t.Fatalf("ResetFor back to the cohort size: %v", err)
	}
}

package transport

// Roster is a per-round participation set over mapper indices, carried in the
// message envelope of roster-bearing control messages (and stamped on the
// shares derived over one: the rosters of one round strictly shrink, so the
// roster is what tells two derivations of a round apart). It is a
// little-endian bitset: bit i of word i/64 is mapper i's membership. A nil
// Roster means "no roster declared" — the fixed-membership protocol where
// every mapper answers every round.
type Roster []uint64

// NewRoster returns an empty roster with capacity for n members.
func NewRoster(n int) Roster {
	if n <= 0 {
		return Roster{}
	}
	return make(Roster, (n+63)/64)
}

// FullRoster returns the roster containing members 0..n-1.
func FullRoster(n int) Roster {
	r := NewRoster(n)
	for i := 0; i < n; i++ {
		r.Add(i)
	}
	return r
}

// Add marks member i present. It panics on negative i and grows the bitset as
// needed, so rosters built with NewRoster(n) never reallocate for i < n.
func (r *Roster) Add(i int) {
	w := i / 64
	for w >= len(*r) {
		*r = append(*r, 0)
	}
	(*r)[w] |= 1 << uint(i%64)
}

// Remove marks member i absent.
func (r Roster) Remove(i int) {
	w := i / 64
	if w < len(r) {
		r[w] &^= 1 << uint(i%64)
	}
}

// Has reports whether member i is present. Out-of-range indices are absent.
func (r Roster) Has(i int) bool {
	w := i / 64
	return i >= 0 && w < len(r) && r[w]&(1<<uint(i%64)) != 0
}

// Count returns the number of present members.
func (r Roster) Count() int {
	n := 0
	for _, w := range r {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Equal reports whether two rosters contain the same members. Trailing zero
// words are insignificant, so rosters of different lengths can be equal.
func (r Roster) Equal(o Roster) bool {
	long, short := r, o
	if len(short) > len(long) {
		long, short = short, long
	}
	for i, w := range short {
		if w != long[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy (nil for a nil roster).
func (r Roster) Clone() Roster {
	if r == nil {
		return nil
	}
	return append(Roster(nil), r...)
}

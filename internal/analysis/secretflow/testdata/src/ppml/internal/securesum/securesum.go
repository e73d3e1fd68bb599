// Package securesum is a golden stub of the masked-summation layer. Calls
// into it from other packages sanitize; inside it the mask stores and the
// randomVector generator are taint sources in their own right.
package securesum

import (
	"fmt"
	"log"
)

// Party holds one participant's pairwise mask state.
type Party struct {
	id       int
	sentFlat []uint64
	sent     map[int][]uint64
}

// randomVector draws fresh mask words (a curated taint source).
func randomVector(n int) []uint64 { return make([]uint64, n) }

// NewParty seeds the pairwise masks.
func NewParty(id, dim int) *Party {
	p := &Party{id: id, sent: make(map[int][]uint64)}
	p.sentFlat = randomVector(dim)
	return p
}

// Share masks v for the wire. Callers outside this package treat it as a
// sanitizer; in here the flow is tracked for real.
func (p *Party) Share(v []float64) []byte {
	out := make([]byte, 8*len(p.sentFlat))
	for i := range p.sentFlat {
		w := uint64(v[i]) + p.sentFlat[i]
		out[i*8] = byte(w)
	}
	return out
}

// debugMasks logs raw mask words.
func (p *Party) debugMasks() {
	log.Printf("party %d masks: %v", p.id, p.sentFlat) // want `securesum seed/mask material reaches logging call`
}

// maskError embeds a mask word in an error string.
func (p *Party) maskError(peer int) error {
	return fmt.Errorf("mask for peer %d: %d", peer, p.sentFlat[0]) // want `securesum seed/mask material reaches fmt\.Errorf`
}

// AppendShares frames ring words for the wire: a pure encoding, so callers
// outside this package get back whatever they passed in.
func AppendShares(dst []byte, v []uint64) []byte {
	for _, x := range v {
		dst = append(dst, byte(x))
	}
	return dst
}

package linalg

// TileM is the tile's row count, for tests outside the package that shape
// their inputs around its edges.
const TileM = tileM

// SetFMA switches the assembly kernels on or off for tests outside the
// package and returns the previous setting. Only a setting SetFMA returned
// may be restored as true. Off, every kernel runs its Go twin, whatever
// SetAVX512 says.
func SetFMA(on bool) bool {
	prev := hasFMA
	hasFMA = on
	return prev
}

// SetAVX512 switches the AVX-512 bodies on or off, under SetFMA's rule: it
// returns the previous setting, and only a setting it returned may be
// restored as true.
func SetAVX512(on bool) bool {
	prev := hasAVX512
	hasAVX512 = on
	return prev
}

// A Body is one implementation of the compute layer's kernels, selected by a
// setting of SetFMA and SetAVX512: "avx512" runs the AVX-512 bodies where a
// kernel has one and the AVX2 body elsewhere, "avx2" the AVX2 bodies, and
// "purego" the Go twins.
type Body struct {
	Name        string
	fma, avx512 bool
}

// Bodies lists every body, widest first; purego, last, runs on every host.
var Bodies = []Body{{"avx512", true, true}, {"avx2", true, false}, {"purego", false, false}}

// hostFMA and hostAVX512 are what detection found, before any test set them.
var hostFMA, hostAVX512 = hasFMA, hasAVX512

// Missing names what this host lacks to run b, or is empty.
func (b Body) Missing() string {
	switch {
	case b.avx512 && !hostAVX512:
		return avx512Missing
	case b.fma && !hostFMA:
		return "AVX2 and FMA"
	}
	return ""
}

// HostBodies returns the Bodies this host runs, widest first.
func HostBodies() []Body {
	var out []Body
	for _, b := range Bodies {
		if b.Missing() == "" {
			out = append(out, b)
		}
	}
	return out
}

// Use selects b and returns the function that restores the previous setting.
func (b Body) Use() (restore func()) {
	fma, avx512 := SetFMA(b.fma), SetAVX512(b.avx512)
	return func() {
		SetFMA(fma)
		SetAVX512(avx512)
	}
}

package kernel

import (
	"testing"
	_ "unsafe" // for go:linkname
)

// linalg chooses its kernel bodies from CPUID into the variables below, and
// the hooks that switch them (SetFMA, SetAVX512) sit in its export_test.go,
// which no other package's tests see. These declarations name the variables
// themselves, so that this package's tests and benchmarks run every entry
// point on each body, as linalg's own do.
//
//go:linkname linalgFMA github.com/ppml-go/ppml/internal/linalg.hasFMA
var linalgFMA bool

//go:linkname linalgAVX512 github.com/ppml-go/ppml/internal/linalg.hasAVX512
var linalgAVX512 bool

//go:linkname linalgAVX512Missing github.com/ppml-go/ppml/internal/linalg.avx512Missing
var linalgAVX512Missing string

// A body is one implementation of linalg's kernels and the setting that
// selects it: "avx512" runs the AVX-512 bodies of the tile and the RBF row
// (and AVX2 elsewhere), "avx2" the AVX2 bodies, "purego" the Go twins.
type body struct {
	name        string
	fma, avx512 bool
}

// bodies lists every body, widest first; purego, last, runs on every host.
var bodies = []body{{"avx512", true, true}, {"avx2", true, false}, {"purego", false, false}}

// hostFMA and hostAVX512 are what linalg detected, before any test set them.
var hostFMA, hostAVX512 = linalgFMA, linalgAVX512

// missing names what this host lacks to run b, or is empty.
func (b body) missing() string {
	switch {
	case b.avx512 && !hostAVX512:
		return linalgAVX512Missing
	case b.fma && !hostFMA:
		return "AVX2 and FMA"
	}
	return ""
}

// hostBodies returns the bodies this host runs, widest first.
func hostBodies() []body {
	var out []body
	for _, b := range bodies {
		if b.missing() == "" {
			out = append(out, b)
		}
	}
	return out
}

// use selects b and returns the function that restores the previous setting.
func (b body) use() (restore func()) {
	fma, avx512 := linalgFMA, linalgAVX512
	linalgFMA, linalgAVX512 = b.fma, b.avx512
	return func() { linalgFMA, linalgAVX512 = fma, avx512 }
}

// benchBodies runs run as one sub-benchmark per body, so each body's number
// reproduces; a body this host lacks is skipped, naming the feature it misses.
func benchBodies(b *testing.B, run func(b *testing.B)) {
	for _, body := range bodies {
		b.Run(body.name, func(b *testing.B) {
			if m := body.missing(); m != "" {
				b.Skipf("this host has no %s", m)
			}
			defer body.use()()
			run(b)
		})
	}
}

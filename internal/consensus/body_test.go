package consensus

import (
	"math"
	"testing"
	_ "unsafe" // for go:linkname
)

// linalg chooses its kernel bodies from CPUID into the variables below, and
// the hooks that switch them sit in its export_test.go, which no other
// package's tests see. These declarations name the variables themselves, as
// internal/kernel/body_test.go does, so that whole training runs can be
// repeated on each body.
//
//go:linkname linalgFMA github.com/ppml-go/ppml/internal/linalg.hasFMA
var linalgFMA bool

//go:linkname linalgAVX512 github.com/ppml-go/ppml/internal/linalg.hasAVX512
var linalgAVX512 bool

//go:linkname linalgAVX512Missing github.com/ppml-go/ppml/internal/linalg.avx512Missing
var linalgAVX512Missing string

// TestModelBitEqualAcrossBodies: a trained model is a property of the inputs,
// not of the host. Every TestSchemeConformance scheme trains on the local
// engine and on strict seeded in-process rounds under each linalg body this
// host runs — avx512 (the AVX-512 tile and RBF row, AVX2 elsewhere), avx2 and
// purego (the Go twins) — and the decisions, the residuals and the
// accuracies must equal the first body's to the bit. A body the host lacks is
// skipped. Not parallel: the body switch is a package variable of linalg.
func TestModelBitEqualAcrossBodies(t *testing.T) {
	hostFMA, hostAVX512 := linalgFMA, linalgAVX512
	defer func() { linalgFMA, linalgAVX512 = hostFMA, hostAVX512 }()
	bodies := []struct {
		name        string
		fma, avx512 bool
	}{{"avx512", true, true}, {"avx2", true, false}, {"purego", false, false}}
	engines := []struct {
		name        string
		distributed bool
	}{{"local", false}, {"strict seeded", true}}
	for _, sc := range conformanceSchemes(t) {
		t.Run(sc.name, func(t *testing.T) {
			ref := make([]*outcome, len(engines))
			refBody := ""
			for _, b := range bodies {
				switch {
				case b.avx512 && !hostAVX512:
					t.Logf("%s skipped: this host has no %s", b.name, linalgAVX512Missing)
					continue
				case b.fma && !hostFMA:
					t.Logf("%s skipped: this host has no AVX2 and FMA", b.name)
					continue
				}
				linalgFMA, linalgAVX512 = b.fma, b.avx512
				for i, eng := range engines {
					cfg := sc.base
					cfg.EvalSet, cfg.Distributed = sc.test, eng.distributed
					model, h, err := sc.run(cfg)
					if err != nil {
						t.Fatalf("%s, %s: %v", b.name, eng.name, err)
					}
					got := &outcome{decide(model, sc.test), h}
					if ref[i] == nil {
						ref[i], refBody = got, b.name
						continue
					}
					for name, pair := range map[string][2][]float64{
						"decision": {got.decisions, ref[i].decisions},
						"DeltaZSq": {got.h.DeltaZSq, ref[i].h.DeltaZSq},
						"Accuracy": {got.h.Accuracy, ref[i].h.Accuracy},
					} {
						if len(pair[0]) != len(pair[1]) {
							t.Fatalf("%s, %s: %d values of %s, %s has %d", b.name, eng.name, len(pair[0]), name, refBody, len(pair[1]))
						}
						for j, v := range pair[0] {
							if want := pair[1][j]; math.Float64bits(v) != math.Float64bits(want) {
								t.Errorf("%s, %s: %s[%d] = %v, %s gives %v", b.name, eng.name, name, j, v, refBody, want)
								break
							}
						}
					}
				}
			}
		})
	}
}

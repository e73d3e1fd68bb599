package main

import (
	"runtime"
	"sync"
	"time"
)

// The reference box does not run at one speed. It is a 2-vCPU guest whose
// host takes up to a third of a vCPU away in spells of 15–65 s, about once
// in twelve minutes: every call of such a spell is 1.2–1.5× slower, so no
// statistic over the calls of one 12 s run escapes it, and three runs in a
// row inside one spell put a workload's run-to-run spread at 50 %. Between
// spells the speed still drifts by ±6 % over minutes.
//
// So every run also times a fixed piece of work of the benchmark's own, on
// every core at once, between its training calls, and reports its timings
// as they would read at the box's nominal speed:
//
//	reported = measured × speedRefSeconds / (lower quartile of the probes)
//
// The probe calls nothing outside this file, so no change to the program
// under test can move it. On 41 back-to-back runs of hl_rounds_tcp that
// included one spell this cut the spell's effect on train_s from 1.16–1.48×
// to 1.02–1.22× and the run-to-run spread outside it from 8 % to 5 %.
const (
	speedProbeElems = 16 << 10 // 128 KiB of float64 per goroutine: stays in L2
	speedProbeSweep = 2000

	// speedRefSeconds is the lower quartile of speedProbe on the calm
	// reference box. It only fixes the unit: reported seconds are seconds of
	// the reference box at this speed.
	speedRefSeconds = 0.0215

	// After every timed call the probe runs for speedProbeShare of the time
	// the call took, at least once, so that long and short calls alike put
	// 30–60 probes into a 12 s run.
	speedProbeShare = 0.06
)

// speedBufs are the probe's working sets, one per core, allocated once so
// that the probes leave no garbage for the timed calls to collect.
var speedBufs [][]float64

// speedProbe runs a fixed multiply-add sweep on every core at once and
// returns the wall-clock seconds until the last core finished.
func speedProbe() float64 {
	for len(speedBufs) < runtime.GOMAXPROCS(0) {
		speedBufs = append(speedBufs, make([]float64, speedProbeElems))
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, buf := range speedBufs {
		wg.Add(1)
		go func(buf []float64) {
			defer wg.Done()
			s := 1.0
			for k := 0; k < speedProbeSweep; k++ {
				for j := range buf {
					s += buf[j] * 1.0000001
					buf[j] = s * 1e-9 // stored, so the sweep cannot be optimised away
				}
			}
		}(buf)
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// speedFactor turns a run's probes into the factor its timings are
// multiplied by: below 1 when the box ran slower than nominal.
func speedFactor(probes []float64) float64 {
	if len(probes) == 0 {
		return 1
	}
	return speedRefSeconds / quantile(sorted(probes), 0.25)
}

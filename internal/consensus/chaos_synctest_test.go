//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package consensus

// The chaos scenarios replayed in a synctest bubble (Go 1.24:
// GOEXPERIMENT=synctest; scripts/check.sh runs this file 20 times). In a
// bubble time advances only when every goroutine is blocked, so compute takes
// no time and a scenario's duration is exactly its straggler windows: one
// per round a missing learner is waited for. The faults are keyed to rounds
// and the rejoin schedule to demotions, so every run must read the same
// duration; a second one would be an outcome decided by the clock.
// asynctimerchan=0 because go.mod predates Go 1.23, and a bubble needs the
// synchronous timer channels.

import (
	"testing"
	"testing/synctest"
	"time"
)

func TestElasticChaosInBubble(t *testing.T) {
	const window = 60 * time.Millisecond // chaosCluster's StragglerTimeout
	for _, tc := range []struct {
		name    string
		run     func(*testing.T) time.Duration
		windows int
	}{
		// Killed at round 5: waited for in rounds 5, 6, 7, 9, 13 and 21 of
		// HL's 30 and HK's 25.
		{"HL", chaosKillHorizontalLinear, 6},
		{"HL chunks", chaosKillHorizontalLinearChunks, 6},
		{"HK", chaosKillHorizontalKernel, 6},
		// Killed at round 5, healed at 15: waited for in rounds 5, 6, 7, 9
		// and 13, and rejoined in round 21, their next due round.
		{"VL", chaosKillAndHealVerticalLinear, 5},
		{"VK", chaosKillAndHealVerticalKernel, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			synctest.Run(func() {
				if got, want := tc.run(t), time.Duration(tc.windows)*window; got != want {
					t.Errorf("chaos job took %v of fake time, want %v (%d windows)", got, want, tc.windows)
				}
			})
		})
	}
}

package mapreduce

import (
	"context"
	"testing"
	"time"

	"github.com/ppml-go/ppml/internal/securesum"
	"github.com/ppml-go/ppml/internal/telemetry"
	"github.com/ppml-go/ppml/internal/transport"
)

// TestJournalWireCensusParity pins the flight recorder to the wire ground
// truth over real TCP: every message the transport counts
// must appear as exactly one net.send and one net.recv journal event, the
// journal's payload byte census must equal net.Stats().Bytes to the byte, and
// the per-kind message counts must match the closed-form wiretap expectations
// (m(m−1) seeds once, m shares per round). With the frame-v6
// envelope pinned byte-exactly in transport (TestFrameLengthExact: 49 bytes
// fixed — the length prefix, the 37-byte header including the 16-byte trace
// context, and the roster and name length words — plus the roster words and
// the three name strings), the census reconstructs total wire volume in
// closed form, which is what the ppml-trace network-segment attribution
// relies on.
func TestJournalWireCensusParity(t *testing.T) {
	t.Run("seeded", func(t *testing.T) {
		values := [][]float64{{1, 2}, {3, 4}, {5, 6}}
		const rounds = 3
		m := len(values)
		dim := len(values[0])
		job, red := newAveragingJob(values, rounds)
		red.tol = 0
		reg := telemetry.NewRegistry(telemetry.WithJournal(4096))
		net := transport.NewTCP()
		defer net.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		res, err := RunDistributed(ctx, job, DriverOptions{
			Network: net, Telemetry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != rounds {
			t.Fatalf("ran %d rounds, want %d", res.Iterations, rounds)
		}
		st := net.Stats()

		var sends, recvs int64
		var sentBytes int64
		kindCount := map[string]int64{}
		var trace telemetry.TraceID
		for _, e := range reg.Journal().Snapshot() {
			switch e.Event {
			case "net.send":
				sends++
				sentBytes += e.Bytes
				kindCount[e.Kind]++
				if trace.IsZero() {
					trace = e.Trace
				} else if e.Trace != trace && !e.Trace.IsZero() {
					t.Errorf("two trace IDs on one session's wire: %v and %v", trace, e.Trace)
				}
			case "net.recv":
				recvs++
			}
		}
		if trace.IsZero() {
			t.Error("no trace context on any sent message")
		}
		if sends != st.Messages {
			t.Errorf("journal counted %d sends, transport counted %d messages", sends, st.Messages)
		}
		if recvs != st.Messages {
			t.Errorf("journal counted %d recvs, transport delivered %d messages", recvs, st.Messages)
		}
		if sentBytes != st.Bytes {
			t.Errorf("journal payload census %d bytes, transport %d bytes", sentBytes, st.Bytes)
		}

		wantKinds := map[string]int64{
			KindBroadcast:       int64(m * rounds),
			KindStop:            int64(m),
			securesum.KindShare: int64(m * rounds),
			securesum.KindSeed:  int64(m * (m - 1)),
		}
		for kind, want := range wantKinds {
			if got := kindCount[kind]; got != want {
				t.Errorf("census has %d %q messages, want %d", got, kind, want)
			}
			delete(kindCount, kind)
		}
		for kind, n := range kindCount {
			t.Errorf("census has %d unexpected %q messages", n, kind)
		}

		// Cross-check one payload family against the protocol's own
		// counters: the share payloads in the census must sum to what
		// securesum reports (8 bytes per float64 coordinate per share).
		// The round rides in the envelope only: a broadcast payload is
		// the state alone, and a stop carries nothing.
		snap := reg.Snapshot()
		kindBytes := map[string]int64{}
		for _, e := range snap.Journal {
			if e.Event == "net.send" {
				kindBytes[e.Kind] += e.Bytes
			}
		}
		if got, want := kindBytes[KindBroadcast], int64(m*rounds*8*dim); got != want {
			t.Errorf("census broadcast payloads %d bytes, closed form %d", got, want)
		}
		if got := kindBytes[KindStop]; got != 0 {
			t.Errorf("census stop payloads %d bytes, want 0", got)
		}
		shareBytes := kindBytes[securesum.KindShare]
		if want := snap.CounterTotal("ppml_securesum_bytes_total", telemetry.L("kind", "share")); shareBytes != want {
			t.Errorf("census share payloads %d bytes, securesum counter %d", shareBytes, want)
		}
		if want := int64(m * rounds * 8 * dim); shareBytes != want {
			t.Errorf("census share payloads %d bytes, closed form %d", shareBytes, want)
		}
	})
}

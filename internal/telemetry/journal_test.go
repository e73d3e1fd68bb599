package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestTraceIDRoundtrip(t *testing.T) {
	id := NewTraceID()
	if id.IsZero() {
		t.Fatal("NewTraceID returned the zero id")
	}
	s := id.String()
	if len(s) != 32 {
		t.Fatalf("String() = %q, want 32 hex digits", s)
	}
	back, err := ParseTraceID(s)
	if err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Fatalf("roundtrip: %v != %v", back, id)
	}
	if _, err := ParseTraceID("short"); err == nil {
		t.Fatal("ParseTraceID accepted a short string")
	}
	if _, err := ParseTraceID("zz5c0de0000000000000000000000000"); err == nil {
		t.Fatal("ParseTraceID accepted non-hex digits")
	}
	raw, err := json.Marshal(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != `"`+s+`"` {
		t.Fatalf("json form = %s, want quoted hex", raw)
	}
	var dec TraceID
	if err := json.Unmarshal(raw, &dec); err != nil {
		t.Fatal(err)
	}
	if dec != id {
		t.Fatalf("json roundtrip: %v != %v", dec, id)
	}
}

func TestJournalEmitAndSnapshot(t *testing.T) {
	j := NewJournal(64)
	tr := NewTraceID()
	for i := 0; i < 10; i++ {
		j.Emit("reducer", "round.start", tr, int32(i), "", "", 0, 0)
	}
	if j.Total() != 10 {
		t.Fatalf("Total = %d, want 10", j.Total())
	}
	evs := j.Snapshot()
	if len(evs) != 10 {
		t.Fatalf("Snapshot holds %d, want 10", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has Seq %d, want ascending from 1", i, e.Seq)
		}
		if e.Round != int32(i) || e.Node != "reducer" || e.Trace != tr {
			t.Fatalf("event %d = %+v, mangled fields", i, e)
		}
	}
}

func TestJournalRingWraps(t *testing.T) {
	j := NewJournal(16)
	if j.Capacity() != 16 {
		t.Fatalf("Capacity = %d, want 16", j.Capacity())
	}
	for i := 0; i < 100; i++ {
		j.Emit("n", "e", TraceID{}, int32(i), "", "", 0, 0)
	}
	if j.Total() != 100 {
		t.Fatalf("Total = %d, want 100", j.Total())
	}
	evs := j.Snapshot()
	if len(evs) != 16 {
		t.Fatalf("ring holds %d, want 16", len(evs))
	}
	// Round-robin striping keeps exactly the newest event per slot, so the
	// survivors are the most recent capacity emissions.
	for _, e := range evs {
		if e.Seq <= 100-16 {
			t.Fatalf("old event Seq %d survived a full wrap", e.Seq)
		}
	}
}

func TestJournalCapacityRounding(t *testing.T) {
	if got := NewJournal(1).Capacity(); got != journalStripes {
		t.Fatalf("capacity 1 rounds to %d, want %d", got, journalStripes)
	}
	if got := NewJournal(20).Capacity(); got != 24 {
		t.Fatalf("capacity 20 rounds to %d, want 24", got)
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Emit("n", "e", TraceID{}, 0, "", "", 0, 0)
	if j.Snapshot() != nil || j.Total() != 0 || j.Capacity() != 0 {
		t.Fatal("nil journal must be inert")
	}
}

// TestJournalEmitZeroAlloc pins the flight-recorder hot path: emission must
// not allocate with a live journal (ring slots are preallocated) nor with a
// disabled one (nil no-op), so the steady-state round path stays zero-alloc
// in both configurations.
func TestJournalEmitZeroAlloc(t *testing.T) {
	tr := NewTraceID()
	live := NewJournal(256)
	if n := testing.AllocsPerRun(1000, func() {
		live.Emit("mapper-1", "solve.end", tr, 7, "", "", 0, 0.003)
	}); n != 0 {
		t.Fatalf("live Emit allocates %v/op, want 0", n)
	}
	var off *Journal
	if n := testing.AllocsPerRun(1000, func() {
		off.Emit("mapper-1", "solve.end", tr, 7, "", "", 0, 0.003)
	}); n != 0 {
		t.Fatalf("disabled Emit allocates %v/op, want 0", n)
	}
}

func TestWriteJournalJSON(t *testing.T) {
	r := NewRegistry(WithJournal(32))
	r.SetRunInfo(RunInfo{Commit: "abc123", GoVersion: "go1.x", GOMAXPROCS: 4})
	tr := NewTraceID()
	r.Journal().Emit("reducer", "round.start", tr, 0, "", "", 0, 0)
	r.Journal().Emit("reducer", "share.recv", tr, 0, "mapper-2", "mr.plainshare", 800, 0)

	var buf bytes.Buffer
	if err := r.WriteJournal(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		RunInfo *RunInfo       `json:"run_info"`
		Total   uint64         `json:"total"`
		Events  []JournalEvent `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("WriteJournal output is not valid JSON: %v", err)
	}
	if dump.Total != 2 || len(dump.Events) != 2 {
		t.Fatalf("dump has total=%d events=%d, want 2/2", dump.Total, len(dump.Events))
	}
	if dump.RunInfo == nil || dump.RunInfo.Commit != "abc123" {
		t.Fatalf("dump run_info = %+v, want commit abc123", dump.RunInfo)
	}
	if dump.Events[1].Peer != "mapper-2" || dump.Events[1].Bytes != 800 {
		t.Fatalf("event fields lost in JSON: %+v", dump.Events[1])
	}

	// A registry without a journal (and the nil registry) still write a
	// well-formed empty dump.
	buf.Reset()
	if err := NewRegistry().WriteJournal(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := (*Registry)(nil).WriteJournal(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryOptionsAndEnv(t *testing.T) {
	if NewRegistry().Journal() != nil {
		t.Fatal("journal must be off by default")
	}
	r := NewRegistry(WithJournal(128))
	if r.Journal().Capacity() != 128 {
		t.Fatalf("WithJournal capacity = %d, want 128", r.Journal().Capacity())
	}

	t.Setenv(journalRingEnv, "64")
	r = NewRegistry()
	if r.Journal().Capacity() != 64 {
		t.Fatalf("env journal capacity = %d, want 64", r.Journal().Capacity())
	}
	// Explicit options beat the environment.
	r = NewRegistry(WithJournal(16))
	if r.Journal().Capacity() != 16 {
		t.Fatalf("option did not override env: capacity %d", r.Journal().Capacity())
	}
	t.Setenv(journalRingEnv, "garbage")
	if NewRegistry().Journal() != nil {
		t.Fatal("unparseable env must leave the journal off")
	}
}

func TestRunInfoInSnapshotAndVars(t *testing.T) {
	r := NewRegistry(WithJournal(32))
	if r.RunInfo() != nil {
		t.Fatal("run info must start unset")
	}
	r.SetRunInfo(RunInfo{Commit: "deadbeef", GOMAXPROCS: 8})
	snap := r.Snapshot()
	if snap.RunInfo == nil || snap.RunInfo.Commit != "deadbeef" {
		t.Fatalf("snapshot run_info = %+v", snap.RunInfo)
	}
	if len(snap.Journal) != 0 {
		t.Fatal("empty journal produced snapshot events")
	}
	r.Journal().Emit("n", "e", TraceID{}, 0, "", "", 0, 0)
	snap = r.Snapshot()
	if len(snap.Journal) != 1 || snap.JournalTotal != 1 {
		t.Fatalf("snapshot journal = %d events / total %d, want 1/1", len(snap.Journal), snap.JournalTotal)
	}

	var buf bytes.Buffer
	if err := r.WriteVars(&buf); err != nil {
		t.Fatal(err)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &vars); err != nil {
		t.Fatalf("WriteVars output invalid: %v", err)
	}
	if _, ok := vars["runinfo"]; !ok {
		t.Fatal("/debug/vars missing runinfo")
	}
	if _, ok := vars["journal"]; !ok {
		t.Fatal("/debug/vars missing journal summary")
	}
	// A nil (disabled) registry must not publish runinfo.
	buf.Reset()
	if err := (*Registry)(nil).WriteVars(&buf); err != nil {
		t.Fatal(err)
	}
	vars = nil
	if err := json.Unmarshal(buf.Bytes(), &vars); err != nil {
		t.Fatal(err)
	}
	if _, ok := vars["runinfo"]; ok {
		t.Fatal("disabled registry published runinfo")
	}
}

func TestAutoDumpJournal(t *testing.T) {
	r := NewRegistry(WithJournal(32))
	r.Journal().Emit("reducer", "round.start", NewTraceID(), 0, "", "", 0, 0)

	// Unset env: no dump, no error.
	t.Setenv(journalDumpEnv, "")
	if path, err := r.AutoDumpJournal("abort"); err != nil || path != "" {
		t.Fatalf("unset env dumped %q err %v", path, err)
	}

	dir := t.TempDir()
	t.Setenv(journalDumpEnv, dir)
	path, err := r.AutoDumpJournal("abort")
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, "journal-abort.json")
	if path != want {
		t.Fatalf("dump path = %q, want %q", path, want)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Events []JournalEvent `json:"events"`
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Events) != 1 {
		t.Fatalf("dump holds %d events, want 1", len(dump.Events))
	}

	// No journal attached: still a no-op even with the env set.
	if path, err := NewRegistry().AutoDumpJournal("abort"); err != nil || path != "" {
		t.Fatalf("journalless registry dumped %q err %v", path, err)
	}
}

// Package mapreduce is the main audited golden package: its functions seed
// the four interprocedural leak classes secretflow exists to catch —
// helper-call laundering, struct-field smuggling, error-string embedding,
// and slice aliasing — next to the sanctioned clean paths; wire.go holds the
// fixed-point encoding cases.
package mapreduce

import (
	"context"
	"fmt"
	"log"

	"ppml/internal/dataset"
	"ppml/internal/paillier"
	"ppml/internal/securesum"
	"ppml/internal/telemetry"
	"ppml/internal/transport"
)

// Coordination-plane kinds; KindStop and KindBroadcast are protocol-public.
const (
	KindBroadcast = "mr.broadcast"
	KindStop      = "mr.stop"
	KindShare     = "mr.share"
	KindReady     = "mr.ready"
	KindRoster    = "mr.roster"
)

// frame is a plain, non-cryptographic encoder: its output carries whatever
// its input carried.
func frame(v []float64) []byte {
	out := make([]byte, 0, 8*len(v))
	for _, x := range v {
		out = append(out, byte(int64(x)))
	}
	return out
}

// stage adds a second laundering hop on top of frame.
func stage(v []float64) []byte { return frame(v) }

// LeakViaHelper puts dataset rows on the wire through two helper calls.
func LeakViaHelper(ctx context.Context, ep transport.Endpoint, hdr transport.Header, d *dataset.Dataset) error {
	rows := d.X.Data
	return ep.Send(ctx, "reducer", KindShare, hdr, stage(rows)) // want `dataset-derived data`
}

// reducerState smuggles labels through a struct field between two methods.
type reducerState struct {
	partial []float64
}

func (s *reducerState) absorb(d *dataset.Dataset) {
	s.partial = append(s.partial, d.Y...)
}

func (s *reducerState) flush(ctx context.Context, ep transport.Endpoint, hdr transport.Header) error {
	return ep.Send(ctx, "coordinator", KindShare, hdr, frame(s.partial)) // want `dataset-derived data`
}

// validate embeds a raw label value in an error string; the sample index is
// structural and clean on its own.
func validate(d *dataset.Dataset) error {
	for i, y := range d.Y {
		if y != 1 && y != -1 {
			return fmt.Errorf("sample %d: bad label %g", i, y) // want `dataset-derived data reaches fmt\.Errorf`
		}
	}
	return nil
}

// LeakViaAlias sends a window that shares its backing array with a buffer
// copy filled from dataset rows.
func LeakViaAlias(ctx context.Context, ep transport.Endpoint, hdr transport.Header, d *dataset.Dataset) error {
	scratch := make([]float64, d.Len())
	window := scratch[:0]
	copy(scratch, d.X.Data)
	return ep.Send(ctx, "reducer", KindShare, hdr, frame(window)) // want `dataset-derived data`
}

// GoodMasked routes rows through the securesum sanitizer. No diagnostics.
func GoodMasked(ctx context.Context, ep transport.Endpoint, hdr transport.Header, d *dataset.Dataset, p *securesum.Party) error {
	return ep.Send(ctx, "reducer", KindShare, hdr, p.Share(d.X.Data))
}

// GoodEncrypted routes labels through paillier. No diagnostics.
func GoodEncrypted(ctx context.Context, ep transport.Endpoint, hdr transport.Header, d *dataset.Dataset) error {
	return ep.Send(ctx, "reducer", KindShare, hdr, paillier.Encrypt(d.Y))
}

// GoodMetadata embeds only declassified shape metadata. No diagnostics.
func GoodMetadata(d *dataset.Dataset) error {
	return fmt.Errorf("dataset %s: %d samples, %d features", d.Name, d.Len(), d.Features())
}

// GoodControl sends on the coordination plane. No diagnostics.
func GoodControl(ctx context.Context, ep transport.Endpoint, hdr transport.Header) error {
	return ep.Send(ctx, "all", KindStop, hdr, nil)
}

// GoodElasticControl drives the demote-and-continue roster plane: the
// readiness declaration is empty and the roster announcement travels in the
// envelope header — coordination traffic like stop. No diagnostics.
func GoodElasticControl(ctx context.Context, ep transport.Endpoint, hdr transport.Header) error {
	if err := ep.Send(ctx, "reducer", KindReady, hdr, nil); err != nil {
		return err
	}
	return ep.Send(ctx, "mapper-0", KindRoster, hdr, nil)
}

// DebugDump is the audited escape hatch, justified. No diagnostics.
func DebugDump(d *dataset.Dataset) {
	//ppml:flow-ok gated debug dump, compiled out of release builds
	log.Printf("X=%v", d.X.Data)
}

// DebugDumpUnjustified carries the directive with no reason.
func DebugDumpUnjustified(d *dataset.Dataset) {
	//ppml:flow-ok
	log.Printf("Y=%v", d.Y) // want `directive requires a justification string` `dataset-derived data reaches logging call`
}

// AblationPlain is the justified deliberate plaintext path: one directive
// excuses the send whatever classes its payload carries. No diagnostics.
func AblationPlain(ctx context.Context, ep transport.Endpoint, hdr transport.Header, d *dataset.Dataset) error {
	//ppml:flow-ok deliberate no-privacy baseline for the ablation benchmark
	return ep.Send(ctx, "reducer", KindShare, hdr, frame(d.Y))
}

// JournalLeak embeds a raw label in the flight recorder's value argument:
// the journal is a telemetry sink like any gauge.
func JournalLeak(j *telemetry.Journal, d *dataset.Dataset) {
	j.Emit("reducer", "round.end", telemetry.TraceID{}, 0, "", "", 0, d.Y[0]) // want `dataset-derived data reaches telemetry call Emit`
}

// roundDriver holds the journal handle next to plain round bookkeeping, the
// shape of the real drivers.
type roundDriver struct {
	journal *telemetry.Journal
	dim     int
}

// record exercises the one-way valve: the audited argument is flagged (and
// excused) AT the Emit, but the call must not taint the journal handle or
// the driver holding it — the dim embedded in the error below stays clean.
func (r *roundDriver) record(d *dataset.Dataset) error {
	//ppml:flow-ok golden escape hatch: the audited flow is the Emit argument itself, not the handle it passes through
	r.journal.Emit("reducer", "round.start", telemetry.TraceID{}, 0, "", "", 0, d.Y[0])
	return fmt.Errorf("contribution dim %d", r.dim)
}

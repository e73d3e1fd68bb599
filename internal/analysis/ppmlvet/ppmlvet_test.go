package ppmlvet_test

import (
	"testing"

	"github.com/ppml-go/ppml/internal/analysis/ppmlvet"
)

// TestProtocolPackagesClean is the repo-wide meta-test: the full vet suite —
// secretflow's taint analysis included — run over the real protocol packages
// must report nothing. Every intentional exception in those packages carries
// a //ppml:* directive, and the unuseddirective post-pass (part of the
// suite) guarantees no directive outlives the finding it excuses. A failure
// here means either a genuine leak was introduced or an annotation is
// missing/stale; the diagnostic text says which.
func TestProtocolPackagesClean(t *testing.T) {
	diags, err := loadedRepo(t).Diagnostics(ppmlvet.Suite(),
		"internal/securesum",
		"internal/paillier",
		"internal/consensus",
		"internal/mapreduce",
		"internal/transport",
		"internal/dp",
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("vet suite diagnostic on a protocol package: %s", d)
	}
}

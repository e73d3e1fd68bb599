// Package ppmlvet assembles the repository's invariant checkers into the
// suite that cmd/ppml-vet runs under `go vet -vettool` and that
// scripts/check.sh enforces as a merge gate. DESIGN.md ("Machine-checked
// invariants") maps each analyzer to the part of the paper's threat model it
// guards.
package ppmlvet

import (
	"github.com/ppml-go/ppml/internal/analysis/droppederr"
	"github.com/ppml-go/ppml/internal/analysis/framework"
	"github.com/ppml-go/ppml/internal/analysis/poolcapture"
	"github.com/ppml-go/ppml/internal/analysis/randsource"
	"github.com/ppml-go/ppml/internal/analysis/secretflow"
	"github.com/ppml-go/ppml/internal/analysis/unuseddirective"
)

// Suite returns the full analyzer suite in a stable order. The
// unuseddirective post-pass must come last: it audits the directive lookups
// the earlier analyzers record in the shared usage recorder.
func Suite() []*framework.Analyzer {
	return []*framework.Analyzer{
		randsource.Analyzer,
		droppederr.Analyzer,
		poolcapture.Analyzer,
		secretflow.Analyzer,
		unuseddirective.Analyzer,
	}
}

// Package plaintextwire_test keeps the goldens of the retired plaintextwire
// analyzer, whose provenance model is now secretflow's raw class: every
// finding it made on them, secretflow's send rule must still make.
package plaintextwire_test

import (
	"testing"

	"github.com/ppml-go/ppml/internal/analysis/analysistest"
	"github.com/ppml-go/ppml/internal/analysis/secretflow"
)

func TestPlaintextWire(t *testing.T) {
	analysistest.Run(t, secretflow.Analyzer,
		"ppml/internal/mapreduce", // audited: raw payloads on the data plane
		"ppml/tools",              // unaudited: must produce no diagnostics
	)
}

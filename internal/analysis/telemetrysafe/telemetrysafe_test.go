// Package telemetrysafe_test keeps the goldens of the retired telemetrysafe
// analyzer, whose vector model is now secretflow's vec class: every finding
// it made on them, secretflow's telemetry rule must still make.
package telemetrysafe_test

import (
	"testing"

	"github.com/ppml-go/ppml/internal/analysis/analysistest"
	"github.com/ppml-go/ppml/internal/analysis/secretflow"
)

func TestTelemetrySafe(t *testing.T) {
	analysistest.Run(t, secretflow.Analyzer,
		"ppml/internal/securesum", // audited: payload vectors into sinks are violations
		"ppml/internal/consensus", // audited: iterates, matrices, nested slices
		"ppml/simulation",         // unaudited: must produce no diagnostics
	)
}

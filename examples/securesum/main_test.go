package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"github.com/ppml-go/ppml/internal/fixedpoint"
	"github.com/ppml-go/ppml/internal/securesum"
)

// TestRunSumsOverTheEngine runs the example end to end over TCP and reads
// what it prints: the decoded sum within one codec resolution per party of
// the plain sum, and exactly the frames of one strict masked round.
func TestRunSumsOverTheEngine(t *testing.T) {
	const m, dim = 4, 3
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	var sumLine, trafficLine string
	for _, line := range strings.Split(out.String(), "\n") {
		if s, ok := strings.CutPrefix(line, "  sum      = "); ok {
			sumLine = s
		}
		if s, ok := strings.CutPrefix(line, "protocol traffic: "); ok {
			trafficLine = s
		}
	}

	fields := strings.Fields(strings.Trim(sumLine, "[]"))
	if len(fields) != dim {
		t.Fatalf("sum line %q: want %d values\n%s", sumLine, dim, out.String())
	}
	want := []float64{400, 0, 42} // the parties' vectors added in the clear
	tol := m * fixedpoint.Default().Resolution()
	for j, f := range fields {
		got, err := strconv.ParseFloat(f, 64)
		if err != nil {
			t.Fatalf("sum element %d: %v", j, err)
		}
		if math.Abs(got-want[j]) > tol {
			t.Errorf("sum[%d] = %v, want %v within %g", j, got, want[j], tol)
		}
	}

	var msgs, nbytes int
	if _, err := fmt.Sscanf(trafficLine, "%d messages, %d bytes", &msgs, &nbytes); err != nil {
		t.Fatalf("traffic line %q: %v\n%s", trafficLine, err, out.String())
	}
	// m(m−1) seeds, then m broadcasts, m shares and m stops. The broadcast of
	// the empty state and the stop carry no payload.
	if want := m*(m-1) + 3*m; msgs != want {
		t.Errorf("messages = %d, want %d", msgs, want)
	}
	if want := m*(m-1)*securesum.SeedSize + m*8*dim; nbytes != want {
		t.Errorf("bytes = %d, want %d", nbytes, want)
	}
}

package telemetry

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

func exampleRegistry() *Registry {
	r := NewRegistry()
	r.Counter("ppml_rounds_total").Add(12)
	r.Counter("ppml_transport_bytes_total", L("net", "inproc"), L("dir", "sent")).Add(2048)
	r.Gauge("ppml_mapper_fanout").Set(4)
	h := r.Histogram("ppml_round_seconds", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(7)
	return r
}

func TestWritePrometheus(t *testing.T) {
	var sb strings.Builder
	if err := exampleRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		"# TYPE ppml_rounds_total counter\n",
		"ppml_rounds_total 12\n",
		`ppml_transport_bytes_total{dir="sent",net="inproc"} 2048` + "\n",
		"# TYPE ppml_mapper_fanout gauge\n",
		"ppml_mapper_fanout 4\n",
		"# TYPE ppml_round_seconds histogram\n",
		`ppml_round_seconds_bucket{le="0.01"} 1` + "\n",
		`ppml_round_seconds_bucket{le="0.1"} 2` + "\n",
		`ppml_round_seconds_bucket{le="1"} 2` + "\n",
		`ppml_round_seconds_bucket{le="+Inf"} 3` + "\n",
		"ppml_round_seconds_sum 7.055\n",
		"ppml_round_seconds_count 3\n",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, got)
		}
	}
}

// TestHTTPEndpoints is the endpoint smoke test: metric families render over
// /metrics, /debug/vars parses as JSON and carries the metrics, and
// /debug/pprof/ responds.
func TestHTTPEndpoints(t *testing.T) {
	srv := httptest.NewServer(NewMux(exampleRegistry()))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s body: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{"ppml_rounds_total 12", "ppml_transport_bytes_total", "ppml_round_seconds_bucket"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get("/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars status %d", code)
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
	}
	if vars["ppml_rounds_total"] != float64(12) {
		t.Fatalf("ppml_rounds_total var = %v, want 12", vars["ppml_rounds_total"])
	}
	if _, ok := vars["memstats"]; !ok {
		t.Fatal("/debug/vars missing expvar-compatible memstats")
	}
	if _, ok := vars["cmdline"]; !ok {
		t.Fatal("/debug/vars missing expvar-compatible cmdline")
	}

	if code, _ = get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
	if code, _ = get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline status %d", code)
	}
}

package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSinglePanelWithCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run(t.Context(), []string{"-panel", "a", "-iterations", "2", "-csv", dir}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "fig4a.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 3 { // header + 2 iterations
		t.Errorf("fig4a.csv has %d lines, want 3", len(lines))
	}
	if !strings.HasPrefix(lines[0], "iter,ocr_dz2,ocr_acc") {
		t.Errorf("unexpected CSV header: %q", lines[0])
	}
}

func TestRunBaselinePanel(t *testing.T) {
	if err := run(t.Context(), []string{"-panel", "baseline", "-iterations", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownPanel(t *testing.T) {
	for _, panel := range []string{"zzz", "hot", "comm", "async"} {
		err := run(t.Context(), []string{"-panel", panel})
		if err == nil || !strings.Contains(err.Error(), "elastic, all") {
			t.Errorf("-panel %s: err = %v, want the unknown-panel error listing the panels", panel, err)
		}
	}
	if err := run(t.Context(), []string{"-panel", "a", "-json", filepath.Join(t.TempDir(), "a.json")}); err == nil {
		t.Error("-json accepted with a panel that produces no report")
	}
}

func TestRunCPUProfile(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	if err := run(t.Context(), []string{"-panel", "a", "-iterations", "1", "-cpuprofile", prof}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Error("profile not written")
	}
}

package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ppml-go/ppml"
)

func writeTestCSV(t *testing.T) string {
	t.Helper()
	d := ppml.SyntheticCancer(120, 1)
	path := filepath.Join(t.TempDir(), "data.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := d.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunTrainsAndSavesModel(t *testing.T) {
	data := writeTestCSV(t)
	model := filepath.Join(t.TempDir(), "model.json")
	if err := run(context.Background(), []string{
		"-data", data, "-iterations", "5", "-learners", "2",
		"-model-out", model,
	}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(model)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"scaler"`) {
		t.Error("saved model missing embedded scaler")
	}
	// Round trip: evaluate the saved model.
	if err := run(context.Background(), []string{"-data", data, "-load-model", model}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFlagValidation(t *testing.T) {
	cases := [][]string{
		{},                        // missing -data
		{"-data", "/nonexistent"}, // unreadable file
		{"-data", "x", "-format", "weird"},
		{"-data", "x", "-scheme", "weird"},
	}
	data := writeTestCSV(t)
	for _, c := range cases[2:] {
		c[1] = data
	}
	for _, args := range cases {
		if err := run(context.Background(), args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestParseKernelSpecs(t *testing.T) {
	for _, spec := range []string{"linear", "rbf:0.5", "poly:1:2:3", "sigmoid:0.1:0.2"} {
		if _, err := parseKernel(spec); err != nil {
			t.Errorf("parseKernel(%q): %v", spec, err)
		}
	}
	for _, spec := range []string{"bogus", "rbf:1junk", "rbf:-1"} {
		if _, err := parseKernel(spec); err == nil {
			t.Errorf("parseKernel(%q) accepted", spec)
		}
	}
}

func TestRunVerticalSchemeViaCLI(t *testing.T) {
	data := writeTestCSV(t)
	if err := run(context.Background(), []string{
		"-data", data, "-scheme", "vertical-linear",
		"-iterations", "5", "-learners", "2",
	}); err != nil {
		t.Fatal(err)
	}
}

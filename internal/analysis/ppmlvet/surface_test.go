package ppmlvet_test

import (
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/ppml-go/ppml/internal/analysis/analysistest"
)

// exportAllowlist names the exported surface that no program reaches but
// that stays, keyed as the test reports it: "pkg.Name", "pkg.Type.Method" or
// "pkg.(*Type).Method", with pkg "ppml" for the root package and the path
// under internal/ otherwise. An entry also covers every name it prefixes up
// to a dot, so "analysis/analysistest" is the whole package. Each entry must
// still match an unused export, so the list cannot outlive what it excuses.
var exportAllowlist = map[string]string{
	// Test infrastructure that other packages' tests import.
	"transport.(*Chaos)":    "fault injection for the chaos tests (ROADMAP item 1 reworks it)",
	"analysis/analysistest": "the analyzer test harness",

	// Reached by reflection.
	"telemetry.TraceID.MarshalText":      "encoding/json",
	"telemetry.(*TraceID).UnmarshalText": "encoding/json",
	"ppml.(*Scaler).MarshalJSON":         "encoding/json",
	"ppml.(*Scaler).UnmarshalJSON":       "encoding/json",

	// Bench-only: bench/ is frozen, and ROADMAP item 2(a) decides these.
	"consensus.TrainHorizontalLinearStreamed":    "bench-only",
	"dataset.(*Prefetcher).Chunks":               "bench-only",
	"dataset.OpenDFS":                            "bench-only",
	"dataset.WriteDFS":                           "bench-only",
	"dfs.(*Cluster).AddNode":                     "bench-only",
	"dfs.NewCluster":                             "bench-only",
	"dfs.WithBlockSize":                          "bench-only",
	"dfs.WithReplication":                        "bench-only",
	"fixedpoint.Codec.Resolution":                "bench-only",
	"linalg.FactorizeCholesky":                   "bench-only",
	"mapreduce.KindCipherShare":                  "bench-only",
	"paillier.(*Packing).DecryptVec":             "bench-only",
	"paillier.(*Packing).EncryptVec":             "bench-only",
	"paillier.(*PublicKey).Add":                  "bench-only",
	"paillier.GenerateKey":                       "bench-only",
	"paillier.NewPacking":                        "bench-only",
	"parallel.SetThreshold":                      "bench-only",
	"parallel.SetWorkers":                        "bench-only",
	"securesum.(*Party)":                         "bench-only",
	"securesum.(*SeededSession).RoundShareBytes": "bench-only",
	"securesum.DecodeShares":                     "bench-only",
	"securesum.NewParty":                         "bench-only",

	// Fixtures that other packages' tests build on.
	"dataset.TwoGaussians":                 "cross-package test fixture",
	"linalg.NewMatrixFrom":                 "cross-package test fixture",
	"telemetry.(*Snapshot).GaugeValue":     "cross-package test fixture",
	"telemetry.(*Snapshot).HistogramCount": "cross-package test fixture",
	"transport.Message.Header":             "cross-package test fixture",
}

const repoRoot, module = "../../..", "github.com/ppml-go/ppml"

// repo is every program directory of the module, loaded once for both
// meta-tests of this package.
var repo struct {
	once sync.Once
	r    *analysistest.Repo
	err  error
}

// loadedRepo returns the program directories type-checked by one loader,
// loading them on the first call.
func loadedRepo(t *testing.T) *analysistest.Repo {
	t.Helper()
	repo.once.Do(func() {
		var dirs []string
		if dirs, repo.err = programDirs(repoRoot); repo.err == nil {
			repo.r, repo.err = analysistest.LoadRepo(repoRoot, module, dirs...)
		}
	})
	if repo.err != nil {
		t.Fatal(repo.err)
	}
	return repo.r
}

// TestInternalExportsUsed loads every non-test package of the module except
// bench/ and fails on an exported func, type, var, const or method of an
// exported type, in the root package ppml or under internal/, that no loaded
// package uses: the root package's programs are cmd/ and examples/. A use is
// an entry in types.Info.Uses or Selections; a method also counts as used
// when its receiver implements an interface the program uses that declares
// it.
func TestInternalExportsUsed(t *testing.T) {
	pkgs := loadedRepo(t).Packages

	used := make(map[types.Object]bool)
	ifaces := make(map[*types.Interface]bool) // every interface type an expression has
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			used[origin(obj)] = true
		}
		for _, sel := range p.Info.Selections {
			used[origin(sel.Obj())] = true
		}
		for _, tv := range p.Info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces[it] = true
			}
		}
	}
	satisfied := func(m *types.Func, recv types.Type) bool {
		for it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == m.Name() && types.Implements(recv, it) {
					return true
				}
			}
		}
		return false
	}

	var dead []string
	for _, p := range pkgs {
		pkg, ok := strings.CutPrefix(p.Path, module+"/internal/")
		if p.Path == module {
			pkg, ok = "ppml", true
		}
		if !ok {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if !used[obj] {
				dead = append(dead, pkg+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() || used[m] || satisfied(m, types.NewPointer(named)) {
					continue
				}
				recv := name
				if _, ptr := m.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
					recv = "(*" + name + ")"
				}
				dead = append(dead, pkg+"."+recv+"."+m.Name())
			}
		}
	}

	hit := make(map[string]bool)
	for _, d := range dead {
		if entry, ok := allowed(d); ok {
			hit[entry] = true
			continue
		}
		t.Errorf("exported but no program uses it: %s (delete it, or move it into a _test.go file)", d)
	}
	for entry, reason := range exportAllowlist {
		if !hit[entry] {
			t.Errorf("stale allowlist entry %s (%s): it matches no unused export", entry, reason)
		}
	}
}

// allowed returns the allowlist entry that covers the reported name.
func allowed(name string) (string, bool) {
	for entry := range exportAllowlist {
		if name == entry || strings.HasPrefix(name, entry+".") {
			return entry, true
		}
	}
	return "", false
}

// origin maps an instantiated generic object to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// programDirs lists, relative to root, every directory holding non-test Go
// sources, except bench/ and testdata trees.
func programDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		name := d.Name()
		if rel != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || rel == "bench") {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if n := e.Name(); !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				dirs = append(dirs, filepath.ToSlash(rel))
				break
			}
		}
		return nil
	})
	sort.Strings(dirs)
	return dirs, err
}

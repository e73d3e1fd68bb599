// Package framework is a minimal, dependency-free analogue of
// golang.org/x/tools/go/analysis: just enough structure to write the
// repository's invariant checkers (Analyzer, Pass, Diagnostic) and run them
// from both the analysistest golden harness and the cmd/ppml-vet
// `go vet -vettool` driver. It exists because this repository builds against
// the standard library only; the API mirrors go/analysis so the analyzers
// could migrate to the real framework without rewriting their logic.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, flags, and test output.
	Name string
	// Doc is the help text; the first line is the one-sentence summary.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Diagnostic is one finding, anchored at a source position. Trace, when
// set, is the dataflow witness chain explaining the finding (one
// "position: step" line per hop); drivers print it behind a -trace flag.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	Trace   []string
}

// Pass carries one type-checked package through an Analyzer.Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	// Usage, when non-nil, records every directive a lookup matched. The
	// driver shares one recorder across the suite so the unuseddirective
	// check can flag directives that excused nothing.
	Usage *DirectiveUsage

	directives map[string]map[int][]Directive // filename → line → directives
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file. Several analyzers
// audit production code only: tests may use math/rand, discard errors, and
// exercise failure paths freely.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// PathMatches reports whether a package import path is, or ends with, one of
// the given suffixes (each matched at a path-segment boundary). Analyzers
// declare their audited packages as suffixes like "internal/securesum" so the
// same matcher works for the real module path and for testdata packages.
func PathMatches(path string, suffixes ...string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// Finding is one diagnostic tagged with the analyzer that reported it.
type Finding struct {
	Analyzer string
	Diagnostic
}

// RunSuite applies the analyzers in order to one type-checked package and
// returns their findings sorted by position. One directive-usage recorder
// spans the suite, so an unuseddirective post-pass placed last sees every
// directive lookup the earlier analyzers made. Both drivers — cmd/ppml-vet
// and the analysistest harness — run packages through it.
func RunSuite(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Finding, error) {
	usage := newDirectiveUsage()
	var out []Finding
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info, Usage: usage}
		pass.Report = func(d Diagnostic) { out = append(out, Finding{Analyzer: a.Name, Diagnostic: d}) }
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %v", a.Name, err)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out, nil
}

// Package analysistest runs framework analyzers over golden packages under a
// test's testdata/src directory, in the style of
// golang.org/x/tools/go/analysis/analysistest: source lines carry
// `// want "regexp"` comments naming the diagnostics the analyzer must
// report on that line, and the harness fails the test on any missing or
// unexpected diagnostic.
//
// Golden packages are type-checked from source. Imports resolve first
// against testdata/src (so suites can stub the repository's own packages
// under paths like ppml/internal/transport) and then against the standard
// library via the source importer, which needs no prebuilt export data.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/ppml-go/ppml/internal/analysis/framework"
)

// Run applies the analyzer to each named golden package under testdata/src
// and compares the reported diagnostics against the // want expectations in
// the package sources.
func Run(t *testing.T, a *framework.Analyzer, pkgPaths ...string) {
	t.Helper()
	RunSuite(t, []*framework.Analyzer{a}, pkgPaths...)
}

// RunSuite applies the analyzers in order to each named golden package,
// sharing one directive-usage recorder per package — the way the ppml-vet
// driver runs the real suite — and compares the union of their diagnostics
// against the // want expectations. Usage-dependent checks (unuseddirective)
// only make sense under RunSuite, after the analyzers whose directives they
// audit.
func RunSuite(t *testing.T, analyzers []*framework.Analyzer, pkgPaths ...string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	l := &loader{
		fset: token.NewFileSet(),
		root: root,
		pkgs: make(map[string]*Package),
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	for _, path := range pkgPaths {
		t.Run(strings.ReplaceAll(path, "/", "_"), func(t *testing.T) {
			res, err := l.load(path)
			if err != nil {
				t.Fatalf("loading golden package %s: %v", path, err)
			}
			diags, err := framework.RunSuite(analyzers, l.fset, res.Files, res.Types, res.Info)
			if err != nil {
				t.Fatal(err)
			}
			check(t, l.fset, res.Files, diags)
		})
	}
}

// Repo is a set of real repository packages (rooted at a repository
// directory, imported as modulePath/<dir>) type-checked by one loader, test
// files excluded, as in the real vet run. Load it once and both read its
// packages and run analyzer suites over any of them.
type Repo struct {
	l *loader
	// Packages are the loaded packages, in the order LoadRepo was given.
	Packages []*Package
}

// LoadRepo type-checks the non-test sources of the repository packages in
// pkgDirs (relative to repoRoot, "." for the module root) with one loader,
// so a package imported by several of them is checked once.
func LoadRepo(repoRoot, modulePath string, pkgDirs ...string) (*Repo, error) {
	root, err := filepath.Abs(repoRoot)
	if err != nil {
		return nil, fmt.Errorf("analysistest: %v", err)
	}
	l := &loader{
		fset:       token.NewFileSet(),
		root:       root,
		pkgs:       make(map[string]*Package),
		modulePath: modulePath,
		skipTests:  true,
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	r := &Repo{l: l, Packages: make([]*Package, 0, len(pkgDirs))}
	for _, dir := range pkgDirs {
		res, err := l.load(r.path(dir))
		if err != nil {
			return nil, fmt.Errorf("loading repository package %s: %v", dir, err)
		}
		r.Packages = append(r.Packages, res)
	}
	return r, nil
}

// path is the import path of the repository directory dir.
func (r *Repo) path(dir string) string {
	if dir == "." {
		return r.l.modulePath
	}
	return r.l.modulePath + "/" + dir
}

// Diagnostics runs the analyzers as a suite over each of the packages in
// pkgDirs, which must have been loaded, and returns every diagnostic as a
// "file:line: [analyzer] message" string. This is the engine of the
// repo-wide meta-test: the protocol packages must come back empty.
func (r *Repo) Diagnostics(analyzers []*framework.Analyzer, pkgDirs ...string) ([]string, error) {
	var out []string
	for _, dir := range pkgDirs {
		res, ok := r.l.pkgs[r.path(dir)]
		if !ok || res.err != nil {
			return nil, fmt.Errorf("analysistest: package %s was not loaded", dir)
		}
		diags, err := framework.RunSuite(analyzers, r.l.fset, res.Files, res.Types, res.Info)
		if err != nil {
			return nil, err
		}
		for _, d := range diags {
			p := r.l.fset.Position(d.Pos)
			rel, rerr := filepath.Rel(r.l.root, p.Filename)
			if rerr != nil {
				rel = p.Filename
			}
			out = append(out, fmt.Sprintf("%s:%d: [%s] %s", filepath.ToSlash(rel), p.Line, d.Analyzer, d.Message))
		}
	}
	sort.Strings(out)
	return out, nil
}

// check compares diagnostics against the want expectations, both keyed by
// (file, line).
func check(t *testing.T, fset *token.FileSet, files []*ast.File, diags []framework.Finding) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*wantExpr)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				exprs, err := parseWants(c.Text)
				if err != nil {
					t.Fatalf("%s: %v", fset.Position(c.Pos()), err)
				}
				if len(exprs) == 0 {
					continue
				}
				p := fset.Position(c.Pos())
				k := key{p.Filename, p.Line}
				wants[k] = append(wants[k], exprs...)
			}
		}
	}
	for _, d := range diags {
		p := fset.Position(d.Pos)
		k := key{p.Filename, p.Line}
		matched := false
		for _, w := range wants[k] {
			if w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", p, d.Message)
		}
	}
	var unmet []string
	for k, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				unmet = append(unmet, fmt.Sprintf("%s:%d: no diagnostic matching %q", k.file, k.line, w.re))
			}
		}
	}
	sort.Strings(unmet)
	for _, msg := range unmet {
		t.Error(msg)
	}
}

type wantExpr struct {
	re      *regexp.Regexp
	matched bool
}

// parseWants extracts the quoted regexps of a `// want "re" "re"` comment.
// The expectation may also trail other content inside the same comment token
// (`//ppml:err-ok reason // want "re"`) — a //ppml: directive under test
// owns the whole line, so its expectation can only live embedded like this.
func parseWants(text string) ([]*wantExpr, error) {
	rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(text, "//")), "want ")
	if !ok {
		i := strings.LastIndex(text, "// want ")
		if i < 0 {
			return nil, nil
		}
		rest = text[i+len("// want "):]
	}
	var out []*wantExpr
	for {
		rest = strings.TrimSpace(rest)
		if rest == "" {
			break
		}
		if rest[0] != '"' && rest[0] != '`' {
			return nil, fmt.Errorf("want: expected quoted regexp, found %q", rest)
		}
		lit, remainder, err := cutStringLit(rest)
		if err != nil {
			return nil, fmt.Errorf("want: %v", err)
		}
		re, err := regexp.Compile(lit)
		if err != nil {
			return nil, fmt.Errorf("want: bad regexp %q: %v", lit, err)
		}
		out = append(out, &wantExpr{re: re})
		rest = remainder
	}
	return out, nil
}

// cutStringLit splits one leading Go string literal off s.
func cutStringLit(s string) (value, rest string, err error) {
	quote := s[0]
	for i := 1; i < len(s); i++ {
		switch {
		case quote == '"' && s[i] == '\\':
			i++
		case s[i] == quote:
			v, err := strconv.Unquote(s[:i+1])
			if err != nil {
				return "", "", err
			}
			return v, s[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated string in %q", s)
}

// Package is one type-checked package.
type Package struct {
	Path  string
	Types *types.Package
	Files []*ast.File
	Info  *types.Info
	err   error
}

// loader type-checks golden packages, resolving imports against testdata/src
// (or, with modulePath set, the repository tree) first and the standard
// library (from source) second.
type loader struct {
	fset *token.FileSet
	root string
	pkgs map[string]*Package
	std  types.Importer

	// modulePath, when set, maps import paths under it to directories of
	// the repository rooted at root instead of testdata/src packages.
	modulePath string
	// skipTests excludes _test.go files from loaded packages.
	skipTests bool
}

// dirFor maps an import path to the directory holding its sources, or ""
// when the path is not ours to load.
func (l *loader) dirFor(path string) string {
	if l.modulePath != "" {
		if path == l.modulePath {
			return l.root
		}
		rest, ok := strings.CutPrefix(path, l.modulePath+"/")
		if !ok {
			return ""
		}
		return filepath.Join(l.root, filepath.FromSlash(rest))
	}
	return filepath.Join(l.root, filepath.FromSlash(path))
}

func (l *loader) load(path string) (*Package, error) {
	if res, ok := l.pkgs[path]; ok {
		return res, res.err
	}
	res := &Package{Path: path}
	l.pkgs[path] = res // set before recursing; import cycles fail in Check

	dir := l.dirFor(path)
	if dir == "" {
		res.err = fmt.Errorf("import path %s is outside the loaded module", path)
		return res, res.err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		res.err = err
		return res, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") &&
			!(l.skipTests && strings.HasSuffix(e.Name(), "_test.go")) &&
			matchesBuild(filepath.Join(dir, e.Name()), e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		res.err = fmt.Errorf("no Go files in %s", dir)
		return res, res.err
	}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			res.err = err
			return res, err
		}
		res.Files = append(res.Files, f)
	}
	res.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importerFunc(l.importPkg)}
	res.Types, res.err = conf.Check(path, l.fset, res.Files, res.Info)
	return res, res.err
}

func (l *loader) importPkg(path string) (*types.Package, error) {
	if dir := l.dirFor(path); dir != "" {
		if info, err := os.Stat(dir); err == nil && info.IsDir() {
			res, err := l.load(path)
			if err != nil {
				return nil, err
			}
			return res.Types, nil
		}
	}
	return l.std.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// matchesBuild reports whether a file participates in the host-platform
// build: its GOOS/GOARCH filename suffixes and its leading //go:build
// constraint (if any) are evaluated as the go command would, so that e.g.
// linalg's amd64 assembly declarations and their !amd64 stubs never load
// into the same package.
func matchesBuild(path, name string) bool {
	if !goodOSArchFile(name) {
		return false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "package ") {
			break
		}
		if constraint.IsGoBuild(line) {
			expr, err := constraint.Parse(line)
			if err != nil {
				return false
			}
			return expr.Eval(buildTag)
		}
	}
	return true
}

// buildTag evaluates one constraint tag against the host platform.
func buildTag(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc":
		return true
	case "unix":
		switch runtime.GOOS {
		case "windows", "plan9", "js", "wasip1":
			return false
		}
		return true
	}
	return false
}

var knownArch = map[string]bool{
	"386": true, "amd64": true, "arm": true, "arm64": true, "loong64": true,
	"mips": true, "mipsle": true, "mips64": true, "mips64le": true,
	"ppc64": true, "ppc64le": true, "riscv64": true, "s390x": true, "wasm": true,
}

var knownOS = map[string]bool{
	"aix": true, "android": true, "darwin": true, "dragonfly": true,
	"freebsd": true, "illumos": true, "ios": true, "js": true, "linux": true,
	"netbsd": true, "openbsd": true, "plan9": true, "solaris": true,
	"wasip1": true, "windows": true,
}

// goodOSArchFile applies the _GOOS, _GOARCH, and _GOOS_GOARCH filename
// rules. As in the go command, a suffix only counts when something precedes
// the underscore (a file named amd64.go is unconstrained).
func goodOSArchFile(name string) bool {
	name = strings.TrimSuffix(name, ".go")
	name = strings.TrimSuffix(name, "_test")
	parts := strings.Split(name, "_")
	if len(parts) >= 3 && knownOS[parts[len(parts)-2]] && knownArch[parts[len(parts)-1]] {
		return parts[len(parts)-2] == runtime.GOOS && parts[len(parts)-1] == runtime.GOARCH
	}
	if len(parts) >= 2 {
		switch last := parts[len(parts)-1]; {
		case knownArch[last]:
			return last == runtime.GOARCH
		case knownOS[last]:
			return last == runtime.GOOS
		}
	}
	return true
}

// Command ppml-vet runs the repository's custom invariant analyzers
// (internal/analysis) as a `go vet` tool:
//
//	go build -o bin/ppml-vet ./cmd/ppml-vet
//	go vet -vettool=$PWD/bin/ppml-vet ./...
//
// It speaks the vettool protocol the go command expects — -V=full for build
// caching, -flags for flag discovery, and one JSON .cfg file per compilation
// unit — using only the standard library: types of imported packages are
// read from the export-data files the go command lists in the unit config.
// Individual analyzers can be disabled with -<name>=false.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"runtime"
	"strings"

	"github.com/ppml-go/ppml/internal/analysis/framework"
	"github.com/ppml-go/ppml/internal/analysis/ppmlvet"
	"github.com/ppml-go/ppml/internal/analysis/unuseddirective"
)

// unitConfig is the JSON compilation-unit description the go command writes
// for a vet tool (the fields this driver consumes).
type unitConfig struct {
	ID                        string
	Compiler                  string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	SucceedOnTypecheckFailure bool
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ppml-vet: ")

	suite := ppmlvet.Suite()
	versionFlag := flag.String("V", "", "print version and exit (the go command passes -V=full)")
	flagsFlag := flag.Bool("flags", false, "print analyzer flags in JSON and exit")
	jsonFlag := flag.Bool("json", false, "emit diagnostics as JSON instead of text")
	traceFlag := flag.Bool("trace", false, "print the taint flow trace under each flow diagnostic")
	enabled := make(map[string]*bool, len(suite))
	for _, a := range suite {
		doc, _, _ := strings.Cut(a.Doc, "\n")
		enabled[a.Name] = flag.Bool(a.Name, true, doc)
	}
	flag.Parse()

	switch {
	case *versionFlag != "":
		fmt.Printf("ppml-vet version %s-%s\n", runtime.Version(), selfHash())
		return
	case *flagsFlag:
		printFlagDefs(suite)
		return
	}
	args := flag.Args()
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		log.Fatalf("usage: go vet -vettool=/path/to/ppml-vet ./... (direct invocation takes a single .cfg file)")
	}

	var active []*framework.Analyzer
	anyDisabled := false
	for _, a := range suite {
		if *enabled[a.Name] {
			active = append(active, a)
		} else {
			anyDisabled = true
		}
	}
	if anyDisabled {
		// With part of the suite switched off, its directives are never
		// looked up, and the staleness post-pass would flag every one of
		// them. Only a full-suite run can judge staleness.
		var kept []*framework.Analyzer
		for _, a := range active {
			if a != unuseddirective.Analyzer {
				kept = append(kept, a)
			}
		}
		active = kept
	}
	os.Exit(run(args[0], active, *jsonFlag, *traceFlag))
}

// selfHash fingerprints the executable so the go command's action cache
// invalidates vet results when the tool binary changes.
func selfHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// printFlagDefs answers the go command's -flags query: a JSON list of the
// flags this tool accepts, so `go vet -vettool=... -randsource=false` works.
func printFlagDefs(suite []*framework.Analyzer) {
	type flagDef struct {
		Name  string
		Bool  bool
		Usage string
	}
	defs := []flagDef{
		{Name: "json", Bool: true, Usage: "emit diagnostics as JSON"},
		{Name: "trace", Bool: true, Usage: "print the taint flow trace under each flow diagnostic"},
	}
	for _, a := range suite {
		doc, _, _ := strings.Cut(a.Doc, "\n")
		defs = append(defs, flagDef{Name: a.Name, Bool: true, Usage: doc})
	}
	out, err := json.Marshal(defs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
}

// run analyzes one compilation unit and returns the process exit code.
func run(cfgFile string, analyzers []*framework.Analyzer, asJSON, trace bool) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		log.Fatal(err)
	}
	cfg := new(unitConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		log.Fatalf("cannot decode vet config %s: %v", cfgFile, err)
	}
	// Dependency units are analyzed only for cross-package facts; this suite
	// keeps every invariant package-local, so there is nothing to do.
	if cfg.VetxOnly {
		return 0
	}
	if len(cfg.GoFiles) == 0 {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0 // the compiler will report it better
			}
			log.Fatal(err)
		}
		files = append(files, f)
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	tc := &types.Config{
		Importer:  unitImporter(cfg, fset, compiler),
		Sizes:     types.SizesFor(compiler, runtime.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		log.Fatal(err)
	}

	findings, err := framework.RunSuite(analyzers, fset, files, pkg, info)
	if err != nil {
		log.Fatal(err)
	}

	if asJSON {
		// Mirror the x/tools unitchecker JSON tree: package → analyzer →
		// diagnostics.
		type jsonDiag struct {
			Posn    string   `json:"posn"`
			Message string   `json:"message"`
			Trace   []string `json:"trace,omitempty"`
		}
		tree := map[string]map[string][]jsonDiag{cfg.ID: {}}
		for _, f := range findings {
			tree[cfg.ID][f.Analyzer] = append(tree[cfg.ID][f.Analyzer], jsonDiag{
				Posn:    fset.Position(f.Pos).String(),
				Message: f.Message,
				Trace:   f.Trace,
			})
		}
		out, err := json.MarshalIndent(tree, "", "\t")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(out))
		return 0
	}
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(f.Pos), f.Message)
		if trace {
			for _, step := range f.Trace {
				fmt.Fprintf(os.Stderr, "\tflow: %s\n", step)
			}
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// unitImporter resolves imports through the export-data files listed in the
// unit config, exactly as the go command prepared them.
func unitImporter(cfg *unitConfig, fset *token.FileSet, compiler string) types.Importer {
	underlying := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("cannot resolve import %q", importPath)
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return underlying.Import(path)
	})
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// testModel taints the results of any function named "source" and blocks
// error/bool, mirroring the shape of the real analyzer models.
type testModel struct{}

func (testModel) SourceField(f *types.Var) Taint { return 0 }
func (testModel) ClearField(f *types.Var) bool   { return false }
func (testModel) SourceType(t types.Type) Taint  { return 0 }
func (testModel) SourceParam(fn *types.Func, p *types.Var) Taint {
	return 0
}
func (testModel) SourceCall(fn *types.Func) Taint {
	if fn.Name() == "source" {
		return 1
	}
	return 0
}
func (testModel) Sanitizes(fn *types.Func) bool { return fn.Name() == "sanitize" }
func (testModel) Blocks(t types.Type) bool {
	if types.Identical(t, types.Universe.Lookup("error").Type()) {
		return true
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsBoolean != 0
}

// loadPass type-checks one import-free source file into a Pass.
func loadPass(t *testing.T, src string) *Pass {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return &Pass{
		Analyzer:  &Analyzer{Name: "dataflowtest"},
		Fset:      fset,
		Files:     []*ast.File{f},
		Pkg:       pkg,
		TypesInfo: info,
	}
}

// sinkArgTaints runs the engine and collects the resolved taint of the first
// argument of every call to a function named "sink", keyed by the line the
// call is on.
func sinkArgTaints(t *testing.T, src string) map[int]Taint {
	t.Helper()
	pass := loadPass(t, src)
	tf := RunTaintFlow(pass, testModel{})
	out := make(map[int]Taint)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "sink" {
				out[pass.Fset.Position(call.Pos()).Line] = tf.TaintOf(call.Args[0])
			}
			return true
		})
	}
	return out
}

// expectTaint asserts the taint of the sink call on each annotated line.
func expectTaint(t *testing.T, got map[int]Taint, want map[int]Taint) {
	t.Helper()
	for line, w := range want {
		if got[line] != w {
			t.Errorf("line %d: sink argument taint = %d, want %d", line, got[line], w)
		}
	}
	for line := range got {
		if _, ok := want[line]; !ok {
			t.Errorf("line %d: unexpected sink call in test source", line)
		}
	}
}

// TestFixpointRecursion pins that summaries converge on a self-recursive
// call graph and still map taint through it.
func TestFixpointRecursion(t *testing.T) {
	src := `package p

func source() []int { return make([]int, 4) }
func sink(v []int)  {}

func echo(v []int, n int) []int {
	if n == 0 {
		return v
	}
	return echo(v, n-1)
}

func use() {
	s := echo(source(), 3)
	c := echo(make([]int, 1), 3)
	sink(s)
	sink(c)
}
`
	expectTaint(t, sinkArgTaints(t, src), map[int]Taint{
		16: 1, // taint survives arbitrary recursion depth
		17: 0, // a clean input stays clean through the same summary
	})
}

// TestFixpointMutualRecursion pins convergence on a mutually-recursive pair:
// each function's summary depends on the other's, and the fixpoint must
// close the loop rather than oscillate or truncate.
func TestFixpointMutualRecursion(t *testing.T) {
	src := `package p

func source() []int { return make([]int, 4) }
func sink(v []int)  {}

func ping(v []int, n int) []int {
	if n == 0 {
		return v
	}
	return pong(v, n-1)
}

func pong(v []int, n int) []int {
	if n == 0 {
		return nil
	}
	return ping(v, n-1)
}

func use() {
	sink(ping(source(), 7))
	sink(pong(make([]int, 2), 7))
}
`
	expectTaint(t, sinkArgTaints(t, src), map[int]Taint{
		21: 1,
		22: 0,
	})
}

// TestFieldSmuggling pins the package-global field cells: taint stored into
// a struct field by one function is visible where another reads it back.
func TestFieldSmuggling(t *testing.T) {
	src := `package p

func source() []int { return make([]int, 4) }
func sink(v []int)  {}

type box struct{ v []int }

var stash box

func put(d []int)  { stash.v = d }
func get() []int   { return stash.v }

func use() {
	put(source())
	sink(get())
}
`
	expectTaint(t, sinkArgTaints(t, src), map[int]Taint{
		15: 1,
	})
}

// TestSanitizerClearsAndAliasingKeeps pins the two edges of the lattice: a
// sanitizer call launders taint, while a slice alias written through copy
// keeps it (weak updates).
func TestSanitizerClearsAndAliasingKeeps(t *testing.T) {
	// sanitize is declared without a body: in-package functions are summarized
	// from their code (a package cannot launder its own secrets through
	// itself), so only external, body-less callees take the Sanitizes path.
	src := `package p

func source() []int   { return make([]int, 4) }
func sanitize(v []int) []int
func sink(v []int)    {}

func use() {
	s := source()
	sink(sanitize(s))

	buf := make([]int, 4)
	alias := buf[:2]
	copy(buf, s)
	sink(alias)
}
`
	got := sinkArgTaints(t, src)
	expectTaint(t, got, map[int]Taint{
		9:  0, // sanitized
		14: 1, // alias shares the backing array copy wrote into
	})
}

// TestHelperSinkSeesCallerTaint pins the context-insensitive paramIn facts:
// an expression inside a helper resolves against the taint its callers pass
// in, which is what lets sink checks fire inside shared helpers.
func TestHelperSinkSeesCallerTaint(t *testing.T) {
	src := `package p

func source() []int { return make([]int, 4) }
func sink(v []int)  {}

func helper(v []int) {
	w := v
	sink(w)
}

func use() {
	helper(source())
}
`
	expectTaint(t, sinkArgTaints(t, src), map[int]Taint{
		8: 1,
	})
}

// TestTraceWitness pins that a taint witness chain exists for a flagged
// expression and mentions the hop through which the taint travelled.
func TestTraceWitness(t *testing.T) {
	src := `package p

func source() []int { return make([]int, 4) }
func sink(v []int)  {}

func use() {
	a := source()
	b := a
	sink(b)
}
`
	pass := loadPass(t, src)
	tf := RunTaintFlow(pass, testModel{})
	var arg ast.Expr
	ast.Inspect(pass.Files[0], func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "sink" {
				arg = call.Args[0]
			}
		}
		return true
	})
	if arg == nil {
		t.Fatal("no sink call found")
	}
	if tf.TaintOf(arg) == 0 {
		t.Fatal("sink argument not tainted")
	}
	trace := tf.Trace(arg)
	if len(trace) == 0 {
		t.Fatal("no witness chain for tainted sink argument")
	}
}

// TestAppendHelperReturnsParamWrites pins that what a helper writes into its
// own parameter is part of the parameter's flow: the append-into-dst shape
// (dst = append(dst, x); return dst) returns x's taint, whether the append
// is the builtin or an external method call.
func TestAppendHelperReturnsParamWrites(t *testing.T) {
	src := `package p

func source() []int { return make([]int, 4) }
func sink(v []int)  {}

func app(dst []int, v []int) []int {
	for _, x := range v {
		dst = append(dst, x)
	}
	return dst
}

type enc struct{}

func (enc) AppendInt(dst []int, x int) []int

func appMethod(dst []int, v []int) []int {
	var e enc
	for _, x := range v {
		dst = e.AppendInt(dst, x)
	}
	return dst
}

func use() {
	sink(app(nil, source()))
	sink(appMethod(nil, source()))
	sink(app(nil, make([]int, 1)))
}
`
	expectTaint(t, sinkArgTaints(t, src), map[int]Taint{
		26: 1,
		27: 1,
		28: 0, // a clean input stays clean through the same helper
	})
}

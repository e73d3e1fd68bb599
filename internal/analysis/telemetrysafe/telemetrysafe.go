// Package telemetrysafe keeps payload vectors out of telemetry and logs in
// the protocol packages.
//
// The telemetry package is scalar-only by construction — Journal.Emit takes
// a flat list of strings and numbers and the metric handles take one number,
// never a slice — but nothing in the type system stops a future change from
// stringifying a weight vector into an event label or adding a sink with a
// variadic any parameter that a share buffer fits through. A model iterate
// in a log line is exactly the leak the Section V masking protocol exists to
// prevent: the Reducer (or anyone reading the Reducer's logs) would see an
// individual learner's w_i instead of only the masked aggregate.
//
// In the hard-audited protocol packages (securesum, paillier, consensus,
// mapreduce, transport) this analyzer therefore flags any call into a
// telemetry or logging sink — the telemetry package itself, log, or log/slog
// — that passes a numeric slice, array, or linalg.Matrix argument, directly
// or as a format operand. On top of the type check, the framework's taint
// engine tracks values derived from vectors, so a string built from an
// iterate (fmt.Sprint of a share buffer, a formatted weight vector) is
// flagged at the sink even though its static type is string. Scalars pass
// freely — including scalars computed from vectors: a convergence delta or
// an accuracy is an aggregate statistic, which is exactly what telemetry is
// for — and the bucket-bounds parameter of Histogram is exempt (a bucket
// layout is static configuration, not payload). A site that records a
// genuinely public vector (none exist today) must carry a
// //ppml:telemetry-ok directive with a justification.
package telemetrysafe

import (
	"go/ast"
	"go/types"

	"github.com/ppml-go/ppml/internal/analysis/framework"
)

// Analyzer is the telemetrysafe checker.
var Analyzer = &framework.Analyzer{
	Name: "telemetrysafe",
	Doc: "forbid slice/matrix-typed arguments to telemetry and log sinks in protocol packages; " +
		"documented public vectors require //ppml:telemetry-ok",
	Run: run,
}

// DirectiveName is the escape hatch for documented public-vector recordings.
const DirectiveName = "telemetry-ok"

// hardPaths are the protocol packages whose telemetry must stay scalar-only.
var hardPaths = []string{
	"internal/securesum",
	"internal/paillier",
	"internal/consensus",
	"internal/mapreduce",
	"internal/transport",
}

// sinkPkgs are whole packages every call into which is a sink.
var sinkPkgs = map[string]bool{
	"log":      true,
	"log/slog": true,
}

// vec is the single taint class of the model: derived from a payload vector.
const vec framework.Taint = 1

func run(pass *framework.Pass) error {
	if !framework.PathMatches(pass.Pkg.Path(), hardPaths...) {
		return nil
	}
	flow := framework.RunTaintFlow(pass, &model{})
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if ok {
				checkCall(pass, flow, call)
			}
			return true
		})
	}
	return nil
}

// model taints values of vector type at origin; everything else is the
// engine's default propagation.
type model struct{}

func (m *model) SourceField(f *types.Var) framework.Taint { return 0 }
func (m *model) ClearField(f *types.Var) bool             { return false }
func (m *model) SourceParam(fn *types.Func, p *types.Var) framework.Taint {
	return 0
}
func (m *model) SourceCall(fn *types.Func) framework.Taint { return 0 }

// Sanitizes models the telemetry and log surfaces as one-way valves: every
// argument crossing into a sink is audited by checkCall, and nothing recorded
// there flows back into the protocol. Without this, the engine's
// unknown-callee assumption would let a legitimate scalar-from-vector
// argument (a share byte count, a staleness stamp) taint the journal handle's
// receiver — and, transitively, every string later read off the struct
// holding it.
func (m *model) Sanitizes(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	return sinkPkgs[path] || framework.PathMatches(path, "internal/telemetry")
}

func (m *model) SourceType(t types.Type) framework.Taint {
	if isVectorType(t) {
		return vec
	}
	return 0
}

func (m *model) Blocks(t types.Type) bool {
	if t == nil {
		return false
	}
	if types.Identical(t, errorType) {
		return true
	}
	if b, ok := t.Underlying().(*types.Basic); ok {
		return b.Info()&types.IsBoolean != 0
	}
	return false
}

var errorType = types.Universe.Lookup("error").Type()

// checkCall flags vector-typed (or vector-derived string) arguments flowing
// into a telemetry/log sink.
func checkCall(pass *framework.Pass, flow *framework.TaintFlow, call *ast.CallExpr) {
	callee := calleeFunc(pass, call)
	if callee == nil || callee.Pkg() == nil {
		return
	}
	path := callee.Pkg().Path()
	if !sinkPkgs[path] && !framework.PathMatches(path, "internal/telemetry") {
		return
	}
	for i, arg := range call.Args {
		// Histogram's bucket-bounds parameter is static layout
		// configuration chosen by the programmer, not payload.
		if i == 1 && callee.Name() == "Histogram" && !sinkPkgs[path] {
			continue
		}
		tv, ok := pass.TypesInfo.Types[arg]
		if !ok || tv.Type == nil {
			continue
		}
		switch {
		case isVectorType(tv.Type):
			if pass.Allowed(call.Pos(), DirectiveName) {
				return
			}
			pass.Reportf(arg.Pos(),
				"%s value passed to telemetry/log sink %s.%s in %s: protocol telemetry records scalars only — "+
					"a payload vector here leaks a learner's private iterate (//ppml:%s to document a public vector)",
				tv.Type, path, callee.Name(), pass.Pkg.Path(), DirectiveName)
		case isStringType(tv.Type) && flow.TaintOf(arg)&vec != 0:
			// A vector that was stringified before reaching the sink: same
			// leak, laundered through fmt or a helper.
			if pass.Allowed(call.Pos(), DirectiveName) {
				return
			}
			pass.Report(framework.Diagnostic{
				Pos: arg.Pos(),
				Message: "string built from a payload vector passed to telemetry/log sink " + path + "." + callee.Name() +
					" in " + pass.Pkg.Path() + ": stringifying an iterate leaks it just as surely as logging the slice " +
					"(//ppml:" + DirectiveName + " to document a public vector)",
				Trace: flow.Trace(arg),
			})
		}
	}
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isVectorType reports whether t can carry a payload vector: a slice or
// array of numeric elements (including nested, e.g. [][]float64 — and
// []byte, the wire encoding of every share), or a linalg.Matrix by value or
// pointer. Strings, label slices, and scalars are not vectors; maps and
// structs other than Matrix are left to review.
func isVectorType(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return isVectorElem(u.Elem())
	case *types.Array:
		return isVectorElem(u.Elem())
	case *types.Pointer:
		return isMatrix(u.Elem())
	default:
		return isMatrix(t)
	}
}

// isVectorElem reports whether a slice/array element type makes its
// container a payload vector.
func isVectorElem(e types.Type) bool {
	if b, ok := e.Underlying().(*types.Basic); ok {
		return b.Info()&types.IsNumeric != 0
	}
	return isVectorType(e)
}

// isMatrix reports whether t is linalg.Matrix (possibly named differently
// via aliasing), resolved by its defining package path and name.
func isMatrix(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil &&
		framework.PathMatches(obj.Pkg().Path(), "internal/linalg") &&
		obj.Name() == "Matrix"
}

// calleeFunc resolves the *types.Func a call invokes, or nil for builtins,
// conversions, and indirect calls through function values.
func calleeFunc(pass *framework.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// Package secretflow is the interprocedural taint analyzer of the suite: it
// machine-checks that secret data never reaches an untrusted sink except
// through the sanctioned masking/encryption paths, across helper calls,
// struct fields, and aliasing — the flows the per-function checkers
// (plaintextwire, telemetrysafe) cannot see.
//
// Sources (each its own taint class):
//
//   - dataset rows and labels: reads of dataset.Dataset's X and Y fields,
//     and any value of dataset.Dataset type (the QP/ADMM local iterates are
//     derived from these and inherit the class by propagation); streamed row
//     chunks inherit the class at the dfs read — Cluster.Read/ReadAt results
//     are dataset bytes by construction (partitions and checkpoints of
//     row-derived state are all the dfs stores), and the X/Y fields of
//     decoded dataset.Chunk values are dataset fields like any other;
//   - securesum seed/mask material: the Party and SeededSession stores
//     (sent/recv flats, seeds, the keyed pair PRGs, keystream scratch) and
//     the in-package randomVector generator;
//   - paillier private-key material: the lambda/mu fields of PrivateKey;
//   - raw wire payloads: reads of transport.Message.Payload anywhere, and
//     the payload parameter of transport's own send path (payload bytes are
//     either secret-derived or masked; neither belongs in a log line or an
//     error string).
//
// Sinks: transport Send payloads (coordination-plane kinds exempt, as in
// plaintextwire), telemetry and log/slog calls, fmt-built strings and errors
// (Errorf/Sprint*/Append*), stdout/writer printing (Print*/Fprint*), os file
// writes, and dfs cluster writes.
//
// Sanitizers: calls into securesum, paillier, and fixedpoint from outside
// those packages — their outputs are masked, encrypted, or ring-encoded for
// the masking path by construction. Inside the sanitizer packages
// themselves the flow graph is the truth (a package cannot launder its own
// secrets through itself). Structural metadata (matrix dimensions, dataset
// sizes via Len/Features, envelope routing fields) is declassified.
//
// The escape hatch is //ppml:flow-ok with a justification; transport sends
// already justified with //ppml:plaintext-ok (the deliberate no-privacy
// ablation) are not double-flagged. Error values themselves are never
// tainted: the analyzer flags secret operands at the error's construction
// site instead, which is where the leak happens.
package secretflow

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"github.com/ppml-go/ppml/internal/analysis/framework"
)

// Analyzer is the secretflow checker.
var Analyzer = &framework.Analyzer{
	Name: "secretflow",
	Doc: "flag interprocedural flows of secret data (dataset rows, iterates, seeds/masks, private keys, " +
		"wire payloads) into sends, logs, telemetry, errors, and file writes; escape with //ppml:flow-ok",
	Run: run,
}

// DirectiveName marks an audited, justified secret flow.
const DirectiveName = "flow-ok"

// Taint classes.
const (
	taintData framework.Taint = 1 << iota // dataset rows/labels and values derived from them
	taintMask                             // securesum seeds, pairwise masks, PRG state
	taintKey                              // paillier private-key material
	taintWire                             // raw transport payload bytes
)

// hardPaths are the audited protocol packages.
var hardPaths = []string{
	"internal/securesum",
	"internal/paillier",
	"internal/consensus",
	"internal/mapreduce",
	"internal/transport",
}

// sanitizerPaths hold the sanctioned encode-mask-encrypt routines.
var sanitizerPaths = []string{
	"internal/securesum",
	"internal/paillier",
	"internal/fixedpoint",
}

// controlKinds are the coordination-plane message kinds (see plaintextwire):
// broadcast state, stop, abort, and the elastic-roster plane (readiness
// declarations, roster membership announcements) are protocol-public by
// design.
var controlKinds = map[string]bool{
	"KindBroadcast": true,
	"KindStop":      true,
	"KindAbort":     true,
	"KindReady":     true,
	"KindRoster":    true,
}

// maskFields are the securesum stores that hold seed/mask material.
var maskFields = map[string]bool{
	"sent": true, "recv": true, "sentFlat": true, "recvFlat": true,
	"seeds": true, "pair": true, "ks": true,
}

// keyFields are paillier's private-key components.
var keyFields = map[string]bool{"lambda": true, "mu": true}

// clearedFields are structural metadata, clean even on tainted values:
// matrix dimensions, dataset names, and the envelope's routing fields.
// Keyed by declaring package (suffix) and field name.
var clearedFields = map[string]map[string]bool{
	"internal/linalg":  {"Rows": true, "Cols": true},
	"internal/dataset": {"Name": true},
	"internal/transport": {
		"From": true, "To": true, "Kind": true,
		"Session": true, "Round": true, "Seq": true,
		// The elastic-round stamp: who is in the round, which also tells
		// two share derivations of one round apart. Membership is announced
		// to every learner by the roster protocol itself, so it is public
		// metadata.
		"Roster": true,
		// The distributed-trace identity: a random session name the
		// reducer mints before any data exists and every frame echoes
		// verbatim. It never mixes with payload bytes, so it is public
		// coordination metadata like Session/Round/Seq (DESIGN.md §16).
		"Trace": true,
	},
}

// declassifiers are cross-package calls whose results are public scalars or
// shape metadata even on secret receivers/arguments.
var declassifiers = map[string]bool{
	"Features": true, "Len": true, "Classes": true,
}

func run(pass *framework.Pass) error {
	if !framework.PathMatches(pass.Pkg.Path(), hardPaths...) {
		return nil
	}
	m := &model{pkgPath: pass.Pkg.Path()}
	flow := framework.RunTaintFlow(pass, m)
	s := &sinkScan{pass: pass, flow: flow}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				s.checkCall(call)
			}
			return true
		})
	}
	return nil
}

// model is secretflow's TaintModel.
type model struct {
	pkgPath string
}

func (m *model) SourceField(f *types.Var) framework.Taint {
	if f.Pkg() == nil {
		return 0
	}
	path := f.Pkg().Path()
	switch {
	case framework.PathMatches(path, "internal/transport") && f.Name() == "Payload":
		return taintWire
	case framework.PathMatches(path, "internal/securesum") && maskFields[f.Name()]:
		return taintMask
	case framework.PathMatches(path, "internal/paillier") && keyFields[f.Name()]:
		return taintKey
	case framework.PathMatches(path, "internal/dataset") && (f.Name() == "X" || f.Name() == "Y"):
		return taintData
	}
	return 0
}

func (m *model) ClearField(f *types.Var) bool {
	if f.Pkg() == nil {
		return false
	}
	for pkg, names := range clearedFields {
		if names[f.Name()] && framework.PathMatches(f.Pkg().Path(), pkg) {
			return true
		}
	}
	return false
}

func (m *model) SourceType(t types.Type) framework.Taint {
	if isDatasetType(t) {
		return taintData
	}
	return 0
}

func (m *model) SourceParam(fn *types.Func, p *types.Var) framework.Taint {
	// Inside transport itself, the payload parameter of the send path is
	// opaque secret-or-masked bytes.
	if fn.Pkg() != nil && framework.PathMatches(fn.Pkg().Path(), "internal/transport") &&
		p.Name() == "payload" {
		return taintWire
	}
	return 0
}

func (m *model) SourceCall(fn *types.Func) framework.Taint {
	if fn.Pkg() == nil {
		return 0
	}
	path := fn.Pkg().Path()
	switch {
	case framework.PathMatches(path, "internal/securesum") && fn.Name() == "randomVector":
		return taintMask
	case framework.PathMatches(path, "internal/dfs") && (fn.Name() == "Read" || fn.Name() == "ReadAt"):
		// The streaming path: every byte read out of the distributed file
		// system is dataset rows (partitions, checkpoints of row-derived
		// state), so out-of-core chunks carry the same taint as in-memory
		// partitions from the moment they leave a block.
		return taintData
	}
	return 0
}

func (m *model) Sanitizes(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() == m.pkgPath {
		return false // a package cannot sanitize its own flows
	}
	path := fn.Pkg().Path()
	if framework.PathMatches(path, sanitizerPaths...) {
		return true
	}
	if framework.PathMatches(path, "internal/telemetry") {
		// One-way valve: the telemetry surface (metric handles, spans, the
		// flight-recorder journal) is a sink — every argument crossing into
		// it is audited by the sink scan below — and nothing recorded there
		// flows back into the protocol. Without this, the unknown-callee
		// assumption would let one audited argument (say, a ready
		// declaration's staleness stamp) taint the journal handle's receiver and,
		// transitively, every driver struct holding it.
		return true
	}
	if framework.PathMatches(path, "internal/dataset") && declassifiers[fn.Name()] {
		return true
	}
	return false
}

func (m *model) Blocks(t types.Type) bool { return isBlocked(t) }

func isBlocked(t types.Type) bool {
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

// isDatasetType reports dataset.Dataset under any pointer/slice/array
// wrapping.
func isDatasetType(t types.Type) bool {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Slice:
			t = u.Elem()
			continue
		case *types.Array:
			t = u.Elem()
			continue
		case *types.Named:
			obj := u.Obj()
			return obj != nil && obj.Pkg() != nil && obj.Name() == "Dataset" &&
				framework.PathMatches(obj.Pkg().Path(), "internal/dataset")
		default:
			return false
		}
	}
}

// sinkScan walks the audited package's sinks against the computed flow.
type sinkScan struct {
	pass *framework.Pass
	flow *framework.TaintFlow
}

func (s *sinkScan) checkCall(call *ast.CallExpr) {
	fn := calleeFunc(s.pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	switch {
	case fn.Name() == "Send" && framework.PathMatches(path, "internal/transport") && len(call.Args) == 5:
		s.checkSend(call)
	case path == "fmt":
		s.checkFmt(fn, call)
	case path == "log" || path == "log/slog":
		s.checkArgs(call, call.Args, "logging call "+path+"."+fn.Name())
	case framework.PathMatches(path, "internal/telemetry"):
		s.checkArgs(call, call.Args, "telemetry call "+fn.Name())
	case path == "os" && fn.Name() == "WriteFile":
		if len(call.Args) >= 2 {
			s.checkArgs(call, call.Args[1:2], "file write os.WriteFile")
		}
	case path == "os" && strings.HasPrefix(fn.Name(), "Write"):
		s.checkArgs(call, call.Args, "file write os."+fn.Name())
	case framework.PathMatches(path, "internal/dfs") && strings.HasPrefix(fn.Name(), "Write"):
		s.checkArgs(call, call.Args, "distributed-file write dfs."+fn.Name())
	}
}

// checkSend audits a transport Send payload (argument 4).
func (s *sinkScan) checkSend(call *ast.CallExpr) {
	if isControlKind(s.pass, call.Args[2]) {
		return
	}
	payload := call.Args[4]
	t := s.flow.TaintOf(payload)
	if t == 0 {
		return
	}
	// A justified plaintext-ok already covers the same exposure: the
	// deliberate ablation opt-out should not need two directives.
	if d, ok := s.pass.Directive(call.Pos(), "plaintext-ok"); ok && d.Justification != "" {
		return
	}
	if s.pass.Allowed(call.Pos(), DirectiveName) {
		return
	}
	s.pass.Report(framework.Diagnostic{
		Pos: call.Pos(),
		Message: "transport send carries " + classes(t) + " in its payload: secret-derived values cross " +
			"the wire only through securesum/paillier (mask or encrypt it, or annotate //ppml:" + DirectiveName + ")",
		Trace: s.flow.Trace(payload),
	})
}

// checkFmt audits the string/error-building and printing fmt calls.
func (s *sinkScan) checkFmt(fn *types.Func, call *ast.CallExpr) {
	switch fn.Name() {
	case "Errorf", "Sprintf", "Sprint", "Sprintln", "Appendf", "Append", "Appendln":
		s.checkArgs(call, call.Args, "fmt."+fn.Name()+" string construction")
	case "Printf", "Print", "Println":
		s.checkArgs(call, call.Args, "stdout write fmt."+fn.Name())
	case "Fprintf", "Fprint", "Fprintln":
		if len(call.Args) >= 1 {
			s.checkArgs(call, call.Args[1:], "writer output fmt."+fn.Name())
		}
	}
}

// checkArgs reports the first tainted argument reaching a sink.
func (s *sinkScan) checkArgs(call *ast.CallExpr, args []ast.Expr, sink string) {
	for _, arg := range args {
		t := s.flow.TaintOf(arg)
		if t == 0 {
			continue
		}
		if s.pass.Allowed(call.Pos(), DirectiveName) {
			return
		}
		s.pass.Report(framework.Diagnostic{
			Pos: call.Pos(),
			Message: classes(t) + " reaches " + sink + ": secret-derived values must not be logged, " +
				"formatted, or written out (route through securesum/paillier or annotate //ppml:" + DirectiveName + ")",
			Trace: s.flow.Trace(arg),
		})
		return
	}
}

// classes names the taint classes in a mask, stable order.
func classes(t framework.Taint) string {
	var names []string
	if t&taintData != 0 {
		names = append(names, "dataset-derived data")
	}
	if t&taintMask != 0 {
		names = append(names, "securesum seed/mask material")
	}
	if t&taintKey != 0 {
		names = append(names, "paillier private-key material")
	}
	if t&taintWire != 0 {
		names = append(names, "raw wire payload bytes")
	}
	if len(names) == 0 {
		return "secret data"
	}
	sort.Strings(names)
	return strings.Join(names, " and ")
}

// isControlKind reports whether the kind argument is a coordination-plane
// constant of an audited package.
func isControlKind(pass *framework.Pass, kind ast.Expr) bool {
	var id *ast.Ident
	switch k := ast.Unparen(kind).(type) {
	case *ast.Ident:
		id = k
	case *ast.SelectorExpr:
		id = k.Sel
	default:
		return false
	}
	obj, _ := pass.TypesInfo.Uses[id].(*types.Const)
	return obj != nil && controlKinds[obj.Name()] && obj.Pkg() != nil &&
		framework.PathMatches(obj.Pkg().Path(), hardPaths...)
}

// calleeFunc resolves the *types.Func a call invokes, or nil for builtins,
// conversions, and indirect calls.
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

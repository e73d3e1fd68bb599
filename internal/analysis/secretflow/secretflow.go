// Package secretflow is the privacy checker of the suite: one
// interprocedural taint pass per protocol package (securesum, paillier,
// consensus, mapreduce, transport) and three sink rules over it. It
// machine-checks the paper's Section V guarantee — the Reducer learns only
// the masked sum — across helper calls, struct fields, and aliasing.
//
// Taint classes (a value may carry several):
//
//   - data: dataset rows and labels — reads of dataset.Dataset's X and Y
//     fields, and any value of dataset.Dataset type (the QP/ADMM local
//     iterates are derived from these and inherit the class by
//     propagation); streamed row chunks inherit the class at the dfs read —
//     Cluster.Read/ReadAt results are dataset bytes by construction
//     (partitions and checkpoints of row-derived state are all the dfs
//     stores), and the X/Y fields of decoded dataset.Chunk values are
//     dataset fields like any other;
//   - mask: securesum seed/mask material — the Party and SeededSession
//     stores (sent/recv flats, seeds, the keyed pair PRGs, keystream
//     scratch) and the in-package randomVector generator;
//   - key: paillier private-key material — the lambda/mu fields of
//     PrivateKey;
//   - wire: raw wire payloads — reads of transport.Message.Payload anywhere,
//     and the payload parameter of transport's own send path (payload bytes
//     are either secret-derived or masked; neither belongs in a log line or
//     an error string);
//   - raw: every non-nil value at origin, the provenance class — a value
//     that has not been through securesum or paillier;
//   - vec: every value of vector type at origin (a numeric slice or array,
//     nested or not, []byte included, or a linalg.Matrix).
//
// One sanitizer set clears every class: calls into securesum and paillier
// from outside those packages (their outputs are masked or encrypted by
// construction; inside them the flow graph is the truth, since a package
// cannot launder its own secrets through itself), the telemetry and log
// surfaces (a one-way valve: every argument crossing into them is audited by
// the telemetry rule, and nothing recorded there flows back into the
// protocol), and the dataset shape declassifiers. fixedpoint is not a
// sanitizer, and neither are securesum's share codecs (AppendShares,
// DecodeShares, DecodeSharesInto): a ring encoding is a bijection and hides
// nothing, so a plain share framed by AppendShares is as raw as its input.
// Structural metadata (matrix dimensions, dataset names, envelope routing
// fields) is cleared.
//
// Rules:
//
//   - send: a transport Send payload outside the coordination plane must
//     carry no data, mask, key, or wire taint; in consensus and mapreduce,
//     which move the learners' iterates, no raw taint either — it routes
//     through securesum or paillier.
//   - telemetry: an argument of a telemetry, log, or log/slog call must
//     carry no data, mask, key, or wire taint, must not have a vector type
//     (Histogram's bucket bounds exempt: layout configuration, not
//     payload), and must not be a string built from a vector. Scalars
//     computed from vectors pass: an aggregate statistic (a convergence
//     delta, an accuracy) is what telemetry is for.
//   - output: fmt-built strings and errors (Errorf/Sprint*/Append*),
//     stdout/writer printing (Print*/Fprint*), os file writes, and dfs
//     cluster writes must receive no data, mask, key, or wire taint.
//
// The escape hatch is //ppml:flow-ok with a justification. Error values
// themselves are never tainted: the analyzer flags secret operands at the
// error's construction site instead, which is where the leak happens.
package secretflow

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/ppml-go/ppml/internal/analysis/framework"
)

// Analyzer is the secretflow checker.
var Analyzer = &framework.Analyzer{
	Name: "secretflow",
	Doc: "flag flows of secret data (dataset rows, iterates, seeds/masks, private keys, wire payloads), " +
		"unmasked payloads, and payload vectors into sends, logs, telemetry, errors, and file writes; " +
		"escape with //ppml:flow-ok",
	Run: run,
}

// DirectiveName marks an audited, justified flow.
const DirectiveName = "flow-ok"

// Taint classes.
const (
	taintData framework.Taint = 1 << iota // dataset rows/labels and values derived from them
	taintMask                             // securesum seeds, pairwise masks, PRG state
	taintKey                              // paillier private-key material
	taintWire                             // raw transport payload bytes
	taintRaw                              // not routed through securesum or paillier
	taintVec                              // derived from a payload vector

	secret = taintData | taintMask | taintKey | taintWire
)

// hardPaths are the audited protocol packages.
var hardPaths = []string{
	"internal/securesum",
	"internal/paillier",
	"internal/consensus",
	"internal/mapreduce",
	"internal/transport",
}

// controlKinds are the coordination-plane message kinds: the broadcast state
// is the public consensus iterate z (shared with every learner by the
// protocol itself), stop carries the final public state, abort an error
// string, ready is an empty liveness declaration, and roster announces round
// membership in the envelope header. None carries a learner-local iterate.
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

// shareCodecs are securesum's wire codecs: pure encodings of a ring vector,
// whose output carries whatever their input carried.
var shareCodecs = map[string]bool{
	"AppendShares": true, "DecodeShares": true, "DecodeSharesInto": true,
}

func run(pass *framework.Pass) error {
	path := pass.Pkg.Path()
	if !framework.PathMatches(path, hardPaths...) {
		return nil
	}
	s := &sinkScan{pass: pass, flow: framework.RunTaintFlow(pass, &model{pkgPath: path}), sendMask: secret}
	if framework.PathMatches(path, "internal/consensus", "internal/mapreduce") {
		s.sendMask |= taintRaw
	}
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
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return 0 // a nil carries nothing
	}
	out := taintRaw
	if isVectorType(t) {
		out |= taintVec
	}
	if isDatasetType(t) {
		out |= taintData
	}
	return out
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
	switch {
	case framework.PathMatches(path, "internal/securesum"):
		return !shareCodecs[fn.Name()] // masked by construction, but for the wire codecs
	case framework.PathMatches(path, "internal/paillier"):
		return true // encrypted by construction
	case isTelemetrySink(path):
		// One-way valve: without it the unknown-callee assumption would let
		// one audited argument (say, a residual the flow-ok marks as public)
		// taint the journal handle's receiver and, transitively, every
		// driver struct holding it.
		return true
	}
	return framework.PathMatches(path, "internal/dataset") && declassifiers[fn.Name()]
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

// isTelemetrySink reports the packages every call into which is a
// telemetry sink.
func isTelemetrySink(path string) bool {
	return path == "log" || path == "log/slog" || framework.PathMatches(path, "internal/telemetry")
}

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

// isMatrix reports whether t is linalg.Matrix, resolved by its defining
// package path and name.
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

// sinkScan walks the audited package's sinks against the computed flow.
type sinkScan struct {
	pass *framework.Pass
	flow *framework.TaintFlow
	// sendMask is the taint a data-plane Send payload must not carry.
	sendMask framework.Taint
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
	case isTelemetrySink(path):
		s.checkTelemetry(fn, call)
	case path == "fmt":
		s.checkFmt(fn, call)
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
	if t := s.flow.TaintOf(payload) & s.sendMask; t != 0 {
		s.report(call, payload, "transport send carries "+classes(t)+" in its payload: it does not route "+
			"through securesum or paillier (mask or encrypt it, or annotate //ppml:"+DirectiveName+")")
	}
}

// checkTelemetry audits a telemetry, log, or log/slog call: the first
// argument that carries a secret class, has a vector type, or is a string
// built from a vector is reported.
func (s *sinkScan) checkTelemetry(fn *types.Func, call *ast.CallExpr) {
	path := fn.Pkg().Path()
	isLog := path == "log" || path == "log/slog"
	sink := "telemetry call " + fn.Name()
	if isLog {
		sink = "logging call " + path + "." + fn.Name()
	}
	for i, arg := range call.Args {
		t := s.flow.TaintOf(arg)
		typ := s.pass.TypesInfo.TypeOf(arg)
		switch {
		case t&secret != 0:
			s.report(call, arg, classes(t)+" reaches "+sink+": "+outputAdvice)
		case i == 1 && fn.Name() == "Histogram" && !isLog:
			// Histogram's bucket bounds are static layout configuration
			// chosen by the programmer, not payload.
			continue
		case isVectorType(typ):
			s.report(call, arg, typ.String()+" value passed to telemetry/log sink "+path+"."+fn.Name()+
				": protocol telemetry records scalars only — a payload vector here leaks a learner's private "+
				"iterate (//ppml:"+DirectiveName+" to document a public vector)")
		case isStringType(typ) && t&taintVec != 0:
			s.report(call, arg, "string built from a payload vector passed to telemetry/log sink "+path+"."+
				fn.Name()+": stringifying an iterate leaks it just as surely as logging the slice "+
				"(//ppml:"+DirectiveName+" to document a public vector)")
		default:
			continue
		}
		return
	}
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

// outputAdvice closes every secret-class diagnostic of the telemetry and
// output rules.
const outputAdvice = "secret-derived values must not be logged, formatted, or written out " +
	"(route through securesum/paillier or annotate //ppml:" + DirectiveName + ")"

// checkArgs reports the first argument carrying a secret class into a sink.
func (s *sinkScan) checkArgs(call *ast.CallExpr, args []ast.Expr, sink string) {
	for _, arg := range args {
		if t := s.flow.TaintOf(arg); t&secret != 0 {
			s.report(call, arg, classes(t)+" reaches "+sink+": "+outputAdvice)
			return
		}
	}
}

// report flags call unless a justified flow-ok directive excuses it.
func (s *sinkScan) report(call *ast.CallExpr, arg ast.Expr, msg string) {
	if s.pass.Allowed(call.Pos(), DirectiveName) {
		return
	}
	s.pass.Report(framework.Diagnostic{Pos: call.Pos(), Message: msg, Trace: s.flow.Trace(arg)})
}

// classNames name the reported classes, in the order diagnostics list them.
var classNames = []struct {
	t    framework.Taint
	name string
}{
	{taintData, "dataset-derived data"},
	{taintKey, "paillier private-key material"},
	{taintWire, "raw wire payload bytes"},
	{taintMask, "securesum seed/mask material"},
	{taintRaw, "raw local results"},
}

// classes names the classes in a mask; the provenance class is named only
// when no secret class is present.
func classes(t framework.Taint) string {
	if t&secret != 0 {
		t &= secret
	}
	var names []string
	for _, c := range classNames {
		if t&c.t != 0 {
			names = append(names, c.name)
		}
	}
	return strings.Join(names, " and ")
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
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

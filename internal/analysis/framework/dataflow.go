package framework

// This file is the shared dataflow layer of the analyzer suite: a
// flow-insensitive, interprocedural taint engine over go/ast + go/types.
// Analyzers parameterize it with a TaintModel (what introduces taint, what
// clears it, what can never carry it) and query the resolved taint of any
// expression in the analyzed package; secretflow runs on top of it.
//
// The engine works on the package's own function bodies:
//
//   - Per-function flow facts over assignments, field/index/slice
//     projections, range statements, channel operations, and call
//     arguments/returns. Updates are weak (a container indexed or sliced
//     keeps every taint ever stored into it), which is what makes slice
//     aliasing visible.
//   - Per-function summaries: which parameters flow into which results,
//     which parameters are written through (mutation via pointer, slice,
//     map, or channel parameters, which lands on the caller's argument), and
//     which parameters flow into struct fields or package-level variables.
//     A parameter's own flow includes what the body wrote into it, so the
//     append-into-dst helper shape (dst = append(dst, x); return dst)
//     returns x's taint. Summaries keep parameter dependence symbolic,
//     so a caller's taint maps through arbitrarily deep call chains.
//   - Call-site facts: the taint observed flowing into every in-package
//     parameter (paramIn), which resolves symbolic parameter bits
//     context-insensitively and lets a sink inside a helper see the taint of
//     its callers' arguments.
//   - Struct fields and package-level variables are package-global cells, so
//     a value stashed in a field by one function and read by another keeps
//     its taint (struct-field smuggling).
//
// Everything iterates to a fixpoint over a finite bitmask lattice, so
// recursive and mutually-recursive call graphs converge (dataflow_test.go
// pins this). Cross-package calls have no bodies here — the vettool driver
// analyzes one compilation unit at a time — so unknown calls conservatively
// propagate argument taint to results and to mutable arguments, and the
// model declares which callees are sanitizers (results clean by
// construction) instead. Known precision cuts, by design: values of blocked
// types (error, bool by convention) never carry taint, len/cap results are
// clean, and function literals called through variables propagate only
// their arguments, not their captured environment.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Taint is a bitmask of source classes. The engine only unions and compares
// these; each TaintModel assigns them meaning.
type Taint uint32

// TaintModel parameterizes the engine with an analyzer's source, sanitizer,
// and barrier sets.
type TaintModel interface {
	// SourceField is the taint introduced by reading the given struct field
	// (e.g. transport.Message.Payload, securesum seed/mask stores).
	SourceField(field *types.Var) Taint
	// ClearField reports fields whose reads never carry taint even when the
	// containing value is tainted (structural metadata such as matrix
	// dimensions).
	ClearField(field *types.Var) bool
	// SourceType is the taint carried by values of type t at origin points:
	// parameters, literals, composite literals, make/new, field reads, and
	// unknown-call results. It is not re-applied to tracked propagation, so
	// a sanitizer result stays clean even when its type matches.
	SourceType(t types.Type) Taint
	// SourceParam is extra taint on a specific parameter of a specific
	// function (e.g. the payload parameter of transport's own Send).
	SourceParam(fn *types.Func, param *types.Var) Taint
	// SourceCall is extra taint on the results of calling fn (curated
	// in-package sources such as securesum's randomVector, or whole classes
	// of external calls).
	SourceCall(fn *types.Func) Taint
	// Sanitizes reports whether fn's results are clean by construction and
	// its pointer/slice arguments are not tainted by the call. Models must
	// not sanitize same-package calls: inside the sanitizer package itself
	// the summary-based flow is the truth.
	Sanitizes(fn *types.Func) bool
	// Blocks reports types that can never carry taint (error and bool for
	// every current model: error strings are audited at their construction
	// site, and a branch condition is one bit, below the channel capacity
	// this analysis cares about).
	Blocks(t types.Type) bool
}

// flowSet is taint plus symbolic dependence on the enclosing analyzed
// function's parameters (bit i = parameter i, receiver first).
type flowSet struct {
	t      Taint
	params uint64
}

func (a flowSet) union(b flowSet) flowSet {
	return flowSet{t: a.t | b.t, params: a.params | b.params}
}

func (a flowSet) empty() bool { return a.t == 0 && a.params == 0 }

// maxTrackedParams bounds symbolic parameter tracking; parameters beyond the
// bitmask width are handled conservatively through paramIn only.
const maxTrackedParams = 64

// summary is the callable behavior of one analyzed function.
type summary struct {
	// results holds, per result value, internal taint plus the parameters
	// flowing into it.
	results []flowSet
	// mut holds, per parameter, the flow written through it into its
	// referent (copy-into-dst helpers, decode-into-scratch, ...).
	mut []flowSet
	// fields holds the flow stored into struct fields or package-level
	// variables, keyed by the field/variable object.
	fields map[*types.Var]flowSet
}

// funcInfo is one analyzed function body.
type funcInfo struct {
	fn     *types.Func
	decl   *ast.FuncDecl
	params []*types.Var
	sum    summary
	// litRanges spans the function literals nested in the body, whose
	// return statements must not contribute to this function's summary.
	litRanges [][2]token.Pos
}

// traceStep is one witness edge for diagnostics: how a cell became tainted.
type traceStep struct {
	pos  token.Pos
	what string
	from any // predecessor cell (types.Object), or nil at a source
}

// TaintFlow is the computed dataflow result for one package.
type TaintFlow struct {
	pass  *Pass
	model TaintModel

	funcs   map[*types.Func]*funcInfo
	env     map[types.Object]flowSet // locals and named results
	cells   map[*types.Var]Taint     // struct fields and package-level vars
	paramIn map[*types.Var]Taint     // taint observed at call sites per parameter
	exprs   map[ast.Expr]Taint       // final resolved taint per expression
	wit     map[any]traceStep
	// assigned marks locals written by analyzed code: their env entry is
	// the truth (possibly clean), so they never take the type-origin
	// fallback a never-assigned variable gets.
	assigned map[types.Object]bool

	cur       *funcInfo // function being analyzed
	recording bool
	changed   bool
}

// RunTaintFlow computes the taint fixpoint for the package in pass under the
// given model. Test files are excluded: the suite audits production code.
func RunTaintFlow(pass *Pass, model TaintModel) *TaintFlow {
	tf := &TaintFlow{
		pass:     pass,
		model:    model,
		funcs:    make(map[*types.Func]*funcInfo),
		env:      make(map[types.Object]flowSet),
		cells:    make(map[*types.Var]Taint),
		paramIn:  make(map[*types.Var]Taint),
		exprs:    make(map[ast.Expr]Taint),
		wit:      make(map[any]traceStep),
		assigned: make(map[types.Object]bool),
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &funcInfo{fn: fn, decl: fd, params: signatureParams(fn)}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					fi.litRanges = append(fi.litRanges, [2]token.Pos{n.Pos(), n.End()})
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						tf.markAssigned(l)
					}
				case *ast.ValueSpec:
					// Initialized or not: a declared local starts from its
					// initializer or its zero value, never from the
					// type-origin fallback.
					for _, name := range n.Names {
						tf.markAssigned(name)
					}
				case *ast.RangeStmt:
					if n.Key != nil {
						tf.markAssigned(n.Key)
					}
					if n.Value != nil {
						tf.markAssigned(n.Value)
					}
				}
				return true
			})
			tf.funcs[fn] = fi
		}
	}
	// Global fixpoint: function facts, cells, summaries, and paramIn all
	// grow monotonically over a finite lattice, so this terminates; the
	// iteration cap is a safety net, not a correctness device.
	for iter := 0; iter < 256; iter++ {
		tf.changed = false
		for _, f := range pass.Files {
			if pass.InTestFile(f.Pos()) {
				continue
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
						tf.analyzeFunc(tf.funcs[fn])
					}
				}
			}
		}
		if !tf.changed {
			break
		}
	}
	// Recording pass: resolve and store the taint of every expression.
	tf.recording = true
	for _, fi := range tf.funcs {
		tf.analyzeFunc(fi)
	}
	return tf
}

// TaintOf returns the resolved taint of an expression in the analyzed
// package (zero for expressions in test files or not reached).
func (tf *TaintFlow) TaintOf(e ast.Expr) Taint { return tf.exprs[e] }

// signatureParams lists a function's parameters, receiver first.
func signatureParams(fn *types.Func) []*types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out []*types.Var
	if r := sig.Recv(); r != nil {
		out = append(out, r)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// paramBit returns the symbolic bit of obj among the current function's
// parameters, or 0 if it is not one (or beyond the tracked width).
func (tf *TaintFlow) paramBit(obj types.Object) uint64 {
	if tf.cur == nil {
		return 0
	}
	for i, p := range tf.cur.params {
		if types.Object(p) == obj && i < maxTrackedParams {
			return 1 << uint(i)
		}
	}
	return 0
}

// resolve collapses symbolic parameter bits through the call-site facts.
func (tf *TaintFlow) resolve(fs flowSet) Taint {
	t := fs.t
	if fs.params != 0 && tf.cur != nil {
		for i, p := range tf.cur.params {
			if fs.params&(1<<uint(i)) != 0 {
				t |= tf.paramIn[p]
			}
		}
	}
	return t
}

// isCell reports whether obj outlives a single call frame: a struct field or
// a package-level variable.
func (tf *TaintFlow) isCell(v *types.Var) bool {
	if v.IsField() {
		return true
	}
	return v.Parent() == tf.pass.Pkg.Scope()
}

func (tf *TaintFlow) growEnv(obj types.Object, fs flowSet, pos token.Pos, what string, from any) {
	old := tf.env[obj]
	merged := old.union(fs)
	if merged != old {
		tf.env[obj] = merged
		tf.changed = true
		tf.wit[obj] = traceStep{pos: pos, what: what, from: from}
	}
}

func (tf *TaintFlow) growCell(v *types.Var, t Taint, pos token.Pos, what string, from any) {
	if t&^tf.cells[v] != 0 {
		tf.cells[v] |= t
		tf.changed = true
		tf.wit[v] = traceStep{pos: pos, what: what, from: from}
	}
}

func (tf *TaintFlow) growParamIn(v *types.Var, t Taint, pos token.Pos, what string, from any) {
	if t&^tf.paramIn[v] != 0 {
		tf.paramIn[v] |= t
		tf.changed = true
		tf.wit[v] = traceStep{pos: pos, what: what, from: from}
	}
}

// analyzeFunc runs one flow-insensitive pass over a function body.
func (tf *TaintFlow) analyzeFunc(fi *funcInfo) {
	if fi == nil {
		return
	}
	prev := tf.cur
	tf.cur = fi
	defer func() { tf.cur = prev }()

	var results []flowSet
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			tf.doAssign(n.Lhs, n.Rhs, n.Pos())
		case *ast.ValueSpec:
			tf.doValueSpec(n)
		case *ast.ReturnStmt:
			if !fi.inLit(n.Pos()) {
				results = tf.doReturn(fi, n, results)
			} else if len(n.Results) > 0 {
				for _, r := range n.Results {
					tf.evalExpr(r) // effects only; literal results are untracked
				}
			}
		case *ast.RangeStmt:
			tf.doRange(n)
		case *ast.SendStmt:
			tf.assignTo(n.Chan, tf.evalExpr(n.Value), n.Pos(), "sent on channel")
		case *ast.CallExpr:
			// Calls in any position run for their effects (paramIn,
			// mutations, field stores); re-evaluation is idempotent.
			tf.evalExpr(n)
		}
		return true
	})

	// Named results accumulate through the environment (naked returns).
	if res := resultVars(fi.fn); res != nil {
		for len(results) < len(res) {
			results = append(results, flowSet{})
		}
		for i, rv := range res {
			if rv.Name() != "" && rv.Name() != "_" {
				results[i] = results[i].union(tf.env[rv])
			}
		}
	}
	// What the body wrote into a parameter with a referent (a pointer,
	// slice, map, or channel) lands on the caller's argument; the
	// parameter's own bit is the argument itself.
	for i, p := range fi.params {
		if i >= maxTrackedParams || !hasReferent(p.Type()) {
			continue
		}
		m := tf.env[p]
		m.params &^= 1 << uint(i)
		if m.empty() {
			continue
		}
		for len(fi.sum.mut) <= i {
			fi.sum.mut = append(fi.sum.mut, flowSet{})
		}
		if merged := fi.sum.mut[i].union(m); merged != fi.sum.mut[i] {
			fi.sum.mut[i] = merged
			tf.changed = true
		}
	}
	for i, fs := range results {
		for len(fi.sum.results) <= i {
			fi.sum.results = append(fi.sum.results, flowSet{})
		}
		merged := fi.sum.results[i].union(fs)
		if merged != fi.sum.results[i] {
			fi.sum.results[i] = merged
			tf.changed = true
		}
	}
}

// hasReferent reports whether a value of type t shares storage with its
// copies, so a callee's writes through it reach the caller.
func hasReferent(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
		return true
	}
	return false
}

func (fi *funcInfo) inLit(pos token.Pos) bool {
	for _, r := range fi.litRanges {
		if pos >= r[0] && pos < r[1] {
			return true
		}
	}
	return false
}

func resultVars(fn *types.Func) []*types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return nil
	}
	out := make([]*types.Var, sig.Results().Len())
	for i := range out {
		out[i] = sig.Results().At(i)
	}
	return out
}

func (tf *TaintFlow) doReturn(fi *funcInfo, ret *ast.ReturnStmt, results []flowSet) []flowSet {
	for i, r := range ret.Results {
		if call, ok := ast.Unparen(r).(*ast.CallExpr); ok && len(ret.Results) == 1 {
			// return f() forwarding a multi-result call.
			tuple := tf.evalTuple(call)
			for j, fs := range tuple {
				for len(results) <= j {
					results = append(results, flowSet{})
				}
				results[j] = results[j].union(fs)
			}
			return results
		}
		fs := tf.evalExpr(r)
		for len(results) <= i {
			results = append(results, flowSet{})
		}
		results[i] = results[i].union(fs)
	}
	return results
}

func (tf *TaintFlow) doValueSpec(spec *ast.ValueSpec) {
	if len(spec.Values) == 0 {
		// var x T with no initializer: the zero value carries no data (a
		// nil slice, a zeroed struct), so the variable starts clean and
		// only the stores that later fill it can taint it. The pre-pass
		// marked the names assigned, which keeps evalIdent's type-origin
		// fallback from re-deriving taint from the type alone.
		return
	}
	lhs := make([]ast.Expr, len(spec.Names))
	for i, name := range spec.Names {
		lhs[i] = name
	}
	tf.doAssign(lhs, spec.Values, spec.Pos())
}

func (tf *TaintFlow) doAssign(lhs, rhs []ast.Expr, pos token.Pos) {
	if len(rhs) == 1 && len(lhs) > 1 {
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
			tuple := tf.evalTuple(call)
			for i, l := range lhs {
				if i < len(tuple) {
					tf.assignTo(l, tuple[i], pos, "assigned from "+exprString(call))
				}
			}
			return
		}
		// x, ok := m[k] / v, ok := i.(T) / v, ok := <-ch
		fs := tf.evalExpr(rhs[0])
		tf.assignTo(lhs[0], fs, pos, "assigned from "+exprString(rhs[0]))
		return
	}
	for i, l := range lhs {
		if i >= len(rhs) {
			break
		}
		tf.assignTo(l, tf.evalExpr(rhs[i]), pos, "assigned from "+exprString(rhs[i]))
	}
}

// assignTo merges fs into the storage location of an lvalue. Container and
// indirect stores are weak updates against the container's own cell.
func (tf *TaintFlow) assignTo(l ast.Expr, fs flowSet, pos token.Pos, what string) {
	if fs.empty() {
		return
	}
	switch l := ast.Unparen(l).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		obj := tf.pass.TypesInfo.Defs[l]
		if obj == nil {
			obj = tf.pass.TypesInfo.Uses[l]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return
		}
		if tf.model.Blocks(v.Type()) {
			return
		}
		if tf.isCell(v) {
			tf.storeCell(v, fs, pos, what)
			return
		}
		tf.growEnv(v, fs, pos, what, nil)
	case *ast.SelectorExpr:
		if sel, ok := tf.pass.TypesInfo.Selections[l]; ok && sel.Kind() == types.FieldVal {
			if f, ok := sel.Obj().(*types.Var); ok && !tf.model.Blocks(f.Type()) {
				tf.storeCell(f, fs, pos, what)
			}
			return
		}
		// Qualified package-level variable (pkg.Var = x).
		if v, ok := tf.pass.TypesInfo.Uses[l.Sel].(*types.Var); ok && !tf.model.Blocks(v.Type()) {
			tf.storeCell(v, fs, pos, what)
		}
	case *ast.IndexExpr:
		tf.assignTo(l.X, fs, pos, what+" (stored by index)")
	case *ast.StarExpr:
		tf.assignTo(l.X, fs, pos, what+" (stored through pointer)")
	case *ast.SliceExpr:
		tf.assignTo(l.X, fs, pos, what)
	case *ast.UnaryExpr:
		if l.Op == token.AND { // a callee wrote through &x
			tf.assignTo(l.X, fs, pos, what)
		}
	}
}

// storeCell merges a flow into a field or package-level variable: the taint
// part lands in the global cell, and symbolic parameter dependence is kept
// in the current function's summary so callers map their own taint into the
// cell (struct-field smuggling through setters).
func (tf *TaintFlow) storeCell(v *types.Var, fs flowSet, pos token.Pos, what string) {
	tf.growCell(v, fs.t, pos, what, nil)
	if fs.params != 0 && tf.cur != nil {
		if tf.cur.sum.fields == nil {
			tf.cur.sum.fields = make(map[*types.Var]flowSet)
		}
		merged := tf.cur.sum.fields[v].union(flowSet{params: fs.params})
		if merged != tf.cur.sum.fields[v] {
			tf.cur.sum.fields[v] = merged
			tf.changed = true
		}
		// Resolve what is already known about those parameters.
		tf.growCell(v, tf.resolve(fs), pos, what, nil)
	}
}

func (tf *TaintFlow) doRange(n *ast.RangeStmt) {
	fs := tf.evalExpr(n.X)
	if fs.empty() {
		return
	}
	t := tf.pass.TypesInfo.TypeOf(n.X)
	_, overMap := t.Underlying().(*types.Map)
	_, overChan := t.Underlying().(*types.Chan)
	if n.Key != nil && (overMap || overChan) {
		// Map keys and channel elements carry the container's taint; slice
		// and integer range indices are structural, not data.
		tf.assignTo(n.Key, fs, n.Pos(), "ranged over "+exprString(n.X))
	}
	if n.Value != nil {
		tf.assignTo(n.Value, fs, n.Pos(), "ranged over "+exprString(n.X))
	}
}

// originTaint is the model's type-based taint at origin points, skipping
// blocked types.
func (tf *TaintFlow) originTaint(t types.Type) Taint {
	if t == nil || tf.model.Blocks(t) {
		return 0
	}
	return tf.model.SourceType(t)
}

// evalExpr computes the flow of a single-valued expression and, in the
// recording pass, stores its resolved taint.
func (tf *TaintFlow) evalExpr(e ast.Expr) flowSet {
	fs := tf.evalExprRaw(e)
	if t := tf.pass.TypesInfo.TypeOf(e); t != nil && tf.model.Blocks(t) {
		fs = flowSet{}
	}
	if tf.recording {
		if r := tf.resolve(fs); r != 0 {
			tf.exprs[e] = r
		}
	}
	return fs
}

func (tf *TaintFlow) evalExprRaw(e ast.Expr) flowSet {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return tf.evalExpr(e.X)
	case *ast.Ident:
		return tf.evalIdent(e)
	case *ast.SelectorExpr:
		return tf.evalSelector(e)
	case *ast.BasicLit:
		return flowSet{t: tf.originTaint(tf.pass.TypesInfo.TypeOf(e))}
	case *ast.CompositeLit:
		fs := flowSet{t: tf.originTaint(tf.pass.TypesInfo.TypeOf(e))}
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				fs = fs.union(tf.evalExpr(kv.Value))
				continue
			}
			fs = fs.union(tf.evalExpr(el))
		}
		return fs
	case *ast.CallExpr:
		tuple := tf.evalTuple(e)
		if len(tuple) == 0 {
			return flowSet{}
		}
		return tuple[0]
	case *ast.IndexExpr:
		// Generic instantiation shares this node; only container access
		// projects taint.
		if tf.pass.TypesInfo.Types[e.X].IsType() {
			return flowSet{}
		}
		tf.evalExpr(e.Index)
		return tf.evalExpr(e.X)
	case *ast.SliceExpr:
		return tf.evalExpr(e.X)
	case *ast.StarExpr:
		return tf.evalExpr(e.X)
	case *ast.UnaryExpr:
		return tf.evalExpr(e.X)
	case *ast.BinaryExpr:
		return tf.evalExpr(e.X).union(tf.evalExpr(e.Y))
	case *ast.TypeAssertExpr:
		return tf.evalExpr(e.X)
	case *ast.FuncLit:
		return flowSet{}
	}
	return flowSet{}
}

func (tf *TaintFlow) evalIdent(id *ast.Ident) flowSet {
	obj := tf.pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = tf.pass.TypesInfo.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return flowSet{} // constants, nil, functions, types
	}
	if bit := tf.paramBit(v); bit != 0 {
		// The caller's argument, plus whatever the body wrote into the
		// parameter (dst = append(dst, x); return dst).
		return tf.env[v].union(flowSet{
			t:      tf.model.SourceParam(tf.cur.fn, v) | tf.originTaint(v.Type()),
			params: bit,
		})
	}
	if tf.isCell(v) {
		return flowSet{t: tf.cells[v] | tf.originTaint(v.Type())}
	}
	fs := tf.env[v]
	if _, seen := tf.env[v]; !seen && !tf.assigned[v] {
		// A variable never assigned in this package's analyzed code
		// (closure parameters, variables of literal-free declarations)
		// is an origin of its type. Assigned variables stay with their
		// env entry even when it is clean.
		fs = flowSet{t: tf.originTaint(v.Type())}
	}
	return fs
}

// markAssigned records the base variable an lvalue writes, walking through
// index/star/slice projections to the carrier identifier.
func (tf *TaintFlow) markAssigned(l ast.Expr) {
	switch l := ast.Unparen(l).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		obj := tf.pass.TypesInfo.Defs[l]
		if obj == nil {
			obj = tf.pass.TypesInfo.Uses[l]
		}
		if v, ok := obj.(*types.Var); ok && !tf.isCell(v) {
			tf.assigned[v] = true
		}
	case *ast.IndexExpr:
		tf.markAssigned(l.X)
	case *ast.StarExpr:
		tf.markAssigned(l.X)
	case *ast.SliceExpr:
		tf.markAssigned(l.X)
	}
}

func (tf *TaintFlow) evalSelector(sel *ast.SelectorExpr) flowSet {
	if s, ok := tf.pass.TypesInfo.Selections[sel]; ok {
		switch s.Kind() {
		case types.FieldVal:
			f, _ := s.Obj().(*types.Var)
			if f == nil {
				return flowSet{}
			}
			if tf.model.ClearField(f) {
				tf.evalExpr(sel.X)
				return flowSet{}
			}
			base := tf.evalExpr(sel.X)
			return base.union(flowSet{
				t: tf.cells[f] | tf.model.SourceField(f) | tf.originTaint(f.Type()),
			})
		default: // method value/expr used as a value
			tf.evalExpr(sel.X)
			return flowSet{}
		}
	}
	// Qualified identifier pkg.X.
	switch obj := tf.pass.TypesInfo.Uses[sel.Sel].(type) {
	case *types.Var:
		return flowSet{t: tf.cells[obj] | tf.model.SourceField(obj) | tf.originTaint(obj.Type())}
	default:
		return flowSet{}
	}
}

// evalTuple evaluates a call (or conversion) to a flowSet per result.
func (tf *TaintFlow) evalTuple(call *ast.CallExpr) []flowSet {
	// Conversions propagate their operand with no origin taint: []byte(s)
	// is the same data.
	if tv, ok := tf.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return []flowSet{tf.evalExpr(call.Args[0])}
		}
		return []flowSet{{}}
	}

	fun := ast.Unparen(call.Fun)
	var id *ast.Ident
	var recv ast.Expr
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
		if s, ok := tf.pass.TypesInfo.Selections[f]; ok && s.Kind() == types.MethodVal {
			recv = f.X
		}
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if base, ok := ast.Unparen(f.X).(*ast.Ident); ok {
			id = base
		}
	}

	if id != nil {
		if b, ok := tf.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			return tf.evalBuiltin(b, call)
		}
	}
	var fn *types.Func
	if id != nil {
		fn, _ = tf.pass.TypesInfo.Uses[id].(*types.Func)
	}

	nres := 1
	if tv, ok := tf.pass.TypesInfo.Types[call]; ok {
		if tuple, ok := tv.Type.(*types.Tuple); ok {
			nres = tuple.Len()
		}
	}

	// Argument flows, receiver first when present.
	var argExprs []ast.Expr
	if recv != nil {
		argExprs = append(argExprs, recv)
	}
	argExprs = append(argExprs, call.Args...)
	argFS := make([]flowSet, len(argExprs))
	for i, a := range argExprs {
		argFS[i] = tf.evalExpr(a)
	}

	if fn != nil {
		if fi, ok := tf.funcs[fn]; ok {
			return tf.evalKnownCall(fi, call, argExprs, argFS, nres)
		}
		if tf.model.Sanitizes(fn) {
			return make([]flowSet, nres)
		}
	}

	// Unknown callee: external function, interface method, or indirect
	// call. Propagate the union of the arguments to every non-blocked
	// result and weakly into every mutable argument.
	u := flowSet{}
	for _, fs := range argFS {
		u = u.union(fs)
	}
	if fn != nil {
		u.t |= tf.model.SourceCall(fn)
	}
	out := make([]flowSet, nres)
	resTypes := callResultTypes(tf.pass.TypesInfo, call, nres)
	for i := range out {
		fs := u
		if i < len(resTypes) && resTypes[i] != nil {
			if tf.model.Blocks(resTypes[i]) {
				fs = flowSet{}
			} else {
				fs.t |= tf.originTaint(resTypes[i])
			}
		}
		out[i] = fs
	}
	if !u.empty() {
		// An unknown method call mutates (at most) its receiver — the
		// near-universal stdlib convention: big.Int's z.Exp(x, y, m)
		// writes z and only reads its operands, so the operands must not
		// absorb each other's taint. Unknown package-level functions may
		// write through any pointer argument (fmt.Sscan, binary.Read), so
		// there every pointer argument takes the union. The miss this
		// accepts — a method writing through a non-receiver pointer
		// argument, e.g. gob's Decoder.Decode(&v) — is a documented
		// precision limit.
		for i, a := range argExprs {
			if recv != nil && i > 0 {
				break
			}
			if i < len(argFS) && mutable(tf.pass.TypesInfo.TypeOf(a)) {
				tf.assignTo(a, u, call.Pos(), "written through by "+exprString(call.Fun))
			}
		}
	}
	return out
}

// evalKnownCall maps arguments through an analyzed function's summary.
func (tf *TaintFlow) evalKnownCall(callee *funcInfo, call *ast.CallExpr, argExprs []ast.Expr, argFS []flowSet, nres int) []flowSet {
	// Record the taint arriving at each parameter (context-insensitive):
	// this is what lets a sink inside a helper see its callers.
	for i, p := range callee.params {
		var fs flowSet
		if i < len(argFS) {
			fs = argFS[i]
		} else if len(argFS) > 0 && i >= len(argFS) {
			fs = argFS[len(argFS)-1] // variadic overflow folds into the last
		}
		tf.growParamIn(p, tf.resolve(fs), call.Pos(),
			fmt.Sprintf("passed to %s (parameter %s)", callee.fn.Name(), p.Name()), tf.primaryCarrier(argExprs, i))
	}
	mapThrough := func(s flowSet) flowSet {
		out := flowSet{t: s.t}
		for i := range callee.params {
			if s.params&(1<<uint(i)) == 0 {
				continue
			}
			if i < len(argFS) {
				out = out.union(argFS[i])
			} else if len(argFS) > 0 {
				out = out.union(argFS[len(argFS)-1])
			}
		}
		return out
	}
	// Mutations through pointer/slice parameters land on the arguments.
	for i, m := range callee.sum.mut {
		if m.empty() || i >= len(argExprs) {
			continue
		}
		tf.assignTo(argExprs[i], mapThrough(m), call.Pos(), "written through by "+callee.fn.Name())
	}
	// Parameter-dependent field stores resolve with this call's arguments.
	for f, s := range callee.sum.fields {
		mapped := mapThrough(flowSet{params: s.params})
		if !mapped.empty() {
			tf.storeCell(f, mapped, call.Pos(), "stored into "+f.Name()+" by "+callee.fn.Name())
		}
	}
	extra := tf.model.SourceCall(callee.fn)
	out := make([]flowSet, nres)
	for i := range out {
		if i < len(callee.sum.results) {
			out[i] = mapThrough(callee.sum.results[i])
		}
		out[i].t |= extra
	}
	resTypes := callResultTypes(tf.pass.TypesInfo, call, nres)
	for i := range out {
		if i < len(resTypes) && resTypes[i] != nil && tf.model.Blocks(resTypes[i]) {
			out[i] = flowSet{}
		}
	}
	return out
}

func (tf *TaintFlow) evalBuiltin(b *types.Builtin, call *ast.CallExpr) []flowSet {
	switch b.Name() {
	case "append", "min", "max":
		fs := flowSet{}
		for _, a := range call.Args {
			fs = fs.union(tf.evalExpr(a))
		}
		return []flowSet{fs}
	case "copy":
		if len(call.Args) == 2 {
			src := tf.evalExpr(call.Args[1])
			tf.evalExpr(call.Args[0])
			tf.assignTo(call.Args[0], src, call.Pos(), "copied from "+exprString(call.Args[1]))
		}
		return []flowSet{{}}
	case "len", "cap":
		for _, a := range call.Args {
			tf.evalExpr(a)
		}
		return []flowSet{{}} // sizes are structural, not data
	case "make", "new":
		return []flowSet{{t: tf.originTaint(tf.pass.TypesInfo.TypeOf(call))}}
	default:
		for _, a := range call.Args {
			tf.evalExpr(a)
		}
		return []flowSet{{}}
	}
}

// callResultTypes lists the static types of a call's results.
func callResultTypes(info *types.Info, call *ast.CallExpr, nres int) []types.Type {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return nil
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		out := make([]types.Type, tuple.Len())
		for i := range out {
			out[i] = tuple.At(i).Type()
		}
		return out
	}
	if nres == 1 {
		return []types.Type{tv.Type}
	}
	return nil
}

// mutable reports whether an unknown callee is assumed to write through an
// argument of type t. Deliberately only explicit pointers (the
// decode-into-&target pattern): assuming writes through slice, map, or
// interface arguments would let a sink call poison its own arguments — the
// taint of one Send operand would bleed into the payload being audited.
// In-package callees don't need the assumption; their mutations come from
// real summaries.
func mutable(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

// primaryCarrier picks the argument expression that best explains a flow,
// for witness chains.
func (tf *TaintFlow) primaryCarrier(args []ast.Expr, i int) any {
	if i >= len(args) {
		return nil
	}
	return carrierObjTainted(tf, args[i])
}

// Trace reconstructs a best-effort witness chain explaining why e is
// tainted, one "position: step" line per hop, nearest the sink first.
func (tf *TaintFlow) Trace(e ast.Expr) []string {
	var out []string
	seen := make(map[any]bool)
	cur := carrierObjTainted(tf, e)
	for i := 0; cur != nil && i < 12; i++ {
		if seen[cur] {
			break
		}
		seen[cur] = true
		step, ok := tf.wit[cur]
		if !ok {
			if obj, isObj := cur.(types.Object); isObj {
				out = append(out, fmt.Sprintf("%s: %s is a taint source", tf.pass.Fset.Position(obj.Pos()), obj.Name()))
			}
			break
		}
		name := ""
		if obj, isObj := cur.(types.Object); isObj {
			name = obj.Name() + " "
		}
		out = append(out, fmt.Sprintf("%s: %s%s", tf.pass.Fset.Position(step.pos), name, step.what))
		cur = step.from
	}
	return out
}

// carrierObjTainted finds the first identifier/selector in e whose object
// currently carries taint, as the starting point of a trace.
func carrierObjTainted(tf *TaintFlow, e ast.Expr) any {
	var found any
	ast.Inspect(e, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			obj := tf.pass.TypesInfo.Uses[n]
			if obj == nil {
				obj = tf.pass.TypesInfo.Defs[n]
			}
			if v, ok := obj.(*types.Var); ok {
				if !tf.env[v].empty() || tf.cells[v] != 0 || tf.paramIn[v] != 0 {
					found = types.Object(v)
					return false
				}
			}
		case *ast.SelectorExpr:
			if s, ok := tf.pass.TypesInfo.Selections[n]; ok && s.Kind() == types.FieldVal {
				if f, ok := s.Obj().(*types.Var); ok && tf.cells[f] != 0 {
					found = types.Object(f)
					return false
				}
			}
		}
		return true
	})
	return found
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.SliceExpr:
		return exprString(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.UnaryExpr:
		return e.Op.String() + exprString(e.X)
	case *ast.BasicLit:
		if len(e.Value) > 16 {
			return e.Value[:16] + "…"
		}
		return e.Value
	case *ast.CompositeLit:
		return "composite literal"
	}
	return strings.TrimSpace(fmt.Sprintf("%T", e))
}

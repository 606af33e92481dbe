package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"verro/internal/lint"
)

// Bits is the taint lattice value of one local variable: bit 0 records
// "derived from a source inside this function", bit i+1 records "derived
// from parameter i" (the receiver is parameter 0 when the function is a
// method). Join is bitwise or; the zero value is untainted. Parameters past
// index 62 fall off the lattice, which loses precision but never a finding
// already derived.
type Bits uint64

const srcBit Bits = 1

func paramBit(i int) Bits {
	if i < 0 || i > 62 {
		return 0
	}
	return 1 << uint(i+1)
}

// forEachParamBit invokes fn for every parameter index set in bits, in
// ascending order.
func forEachParamBit(bits Bits, fn func(i int)) {
	for i := 0; i <= 62; i++ {
		if bits&paramBit(i) != 0 {
			fn(i)
		}
	}
}

// Sink marks a function whose listed operands must never receive tainted
// values. Operand 0 is the receiver when the callee is a method; formal
// parameters follow (a plain function's operand i is its parameter i).
type Sink struct {
	Operands []int
	// What names the sink in diagnostics ("track CSV writer motio.SaveCSV").
	What string
}

// TaintConfig is one analyzer's policy, keyed by normalized function names
// (lint.NormName) and "pkgpath.Type.Field" field keys.
type TaintConfig struct {
	// SourceCalls taint every result of the named functions.
	SourceCalls map[string]bool
	// SourceFields taint selector reads of the named struct fields,
	// regardless of the base value's own taint (accessor fields on an
	// otherwise-public handle, e.g. scene.Generated.Truth).
	SourceFields map[string]bool
	// SourceLits taint composite literals of the named types (epsconsist:
	// a literal-constructed Phase1Config is unvalidated by definition).
	SourceLits map[string]bool
	// Sanitizers return clean results and are trusted internally: taint
	// entering one neither escapes through its summary nor reaches sinks
	// inside it.
	Sanitizers map[string]bool
	// Declassifiers are reviewed aggregations whose results are public by
	// documented policy (DESIGN.md §2e); results are clean but their bodies
	// are still analyzed.
	Declassifiers map[string]bool
	// Cleansers clear the taint of their receiver's root object at the call
	// site, in statement order (epsconsist: Validate()).
	Cleansers map[string]bool
	// Sinks flag tainted values reaching the listed operands.
	Sinks map[string]*Sink
	// FmtSinkPrefixes makes fmt printing a sink inside packages whose
	// import path starts with one of the prefixes (the binaries publish
	// their stdout).
	FmtSinkPrefixes []string
	// FuncArgResults marks parallel mappers whose result taint is the union
	// of their closure argument's return taints (par.Map, par.MapPool).
	FuncArgResults map[string]bool
	// FieldFilter, when non-nil, restricts base-to-field propagation:
	// reading a field not in the set yields untainted even on a tainted
	// base. epsconsist tracks only the privacy-relevant config fields this
	// way; privleak leaves it nil (all fields of a raw value are raw).
	FieldFilter map[string]bool
	// RetaintFields re-taint the root object when one of the named fields
	// is written: mutating a privacy field invalidates a prior Validate().
	RetaintFields map[string]bool
	// ArithSink makes numeric binary arithmetic (+ - * /) an inline sink
	// for tainted operands, described as ArithWhat.
	ArithSink bool
	ArithWhat string
	// Report is the diagnostic format string; its single %s receives the
	// sink description (suffixed "(via callee)" for flows that leave the
	// reporting function).
	Report string
}

// summary is one function's caller-visible taint behavior, expressed in
// srcBit and the function's own parameter bits.
type summary struct {
	// results holds the taint of each result value.
	results []Bits
	// paramSinks: parameter index → descriptions of sinks the parameter's
	// value reaches inside the callee, transitively.
	paramSinks map[int]map[string]bool
	// paramStores: parameter index → taint stored into the parameter's
	// object graph (receiver mutation, e.g. (*SeriesTable).AddColumn).
	paramStores map[int]Bits
}

func newSummary(nResults int) *summary {
	return &summary{
		results:     make([]Bits, nResults),
		paramSinks:  map[int]map[string]bool{},
		paramStores: map[int]Bits{},
	}
}

func addHit(m map[int]map[string]bool, i int, what string) {
	if m[i] == nil {
		m[i] = map[string]bool{}
	}
	m[i][what] = true
}

func equalSummary(a, b *summary) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.results) != len(b.results) {
		return false
	}
	for i := range a.results {
		if a.results[i] != b.results[i] {
			return false
		}
	}
	if len(a.paramStores) != len(b.paramStores) || len(a.paramSinks) != len(b.paramSinks) {
		return false
	}
	for i, bits := range a.paramStores {
		if b.paramStores[i] != bits {
			return false
		}
	}
	for i, hits := range a.paramSinks {
		other := b.paramSinks[i]
		if len(other) != len(hits) {
			return false
		}
		for h := range hits {
			if !other[h] {
				return false
			}
		}
	}
	return true
}

// sortedHits returns one parameter's sink descriptions in sorted order.
func sortedHits(hits map[string]bool) []string {
	out := make([]string, 0, len(hits))
	for h := range hits {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// engine runs one TaintConfig over a program.
type engine struct {
	pass *lint.Pass
	cfg  *TaintConfig
	sums map[string]*summary
}

// run iterates per-function summaries to a fixpoint (starting optimistic:
// a function not yet summarized contributes nothing, so the table ascends
// to the least fixpoint), then replays every body once more with reporting
// enabled against the converged table.
func (e *engine) run() {
	summarize := func(fn *lint.Func) *summary { return e.analyze(fn, false) }
	lint.Fixpoint(e.pass.Program, e.sums, summarize, equalSummary)
	for _, name := range e.pass.Names {
		e.analyze(e.pass.Funcs[name], true)
	}
}

// retFrame accumulates the return-value taint of one function or closure
// body; objs carries the named result objects for naked returns.
type retFrame struct {
	bits []Bits
	objs []types.Object
}

// fnWalker is the per-function forward walk: an abstract state mapping
// objects to taint Bits, updated in statement order, with branches analyzed
// on copies and merged pointwise and loop bodies iterated to a bounded
// fixpoint.
type fnWalker struct {
	eng    *engine
	fn     *lint.Func
	info   *types.Info
	report bool
	params map[types.Object]int
	taint  map[types.Object]Bits
	sum    *summary
	rets   []*retFrame
}

// analyze walks one function body and returns its summary. report is
// false during the fixpoint and true during the reporting pass.
func (e *engine) analyze(fn *lint.Func, report bool) *summary {
	fd := fn.Decl
	w := &fnWalker{
		eng:    e,
		fn:     fn,
		info:   fn.Pkg.Info,
		report: report,
		params: map[types.Object]int{},
		taint:  map[types.Object]Bits{},
	}
	idx := 0
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		for _, name := range fd.Recv.List[0].Names {
			if obj := w.info.Defs[name]; obj != nil && name.Name != "_" {
				w.params[obj] = 0
				w.taint[obj] = paramBit(0)
			}
		}
		idx = 1
	}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			if len(field.Names) == 0 {
				idx++
				continue
			}
			for _, name := range field.Names {
				if obj := w.info.Defs[name]; obj != nil && name.Name != "_" {
					w.params[obj] = idx
					w.taint[obj] = paramBit(idx)
				}
				idx++
			}
		}
	}
	frame := &retFrame{
		bits: make([]Bits, fieldCount(fd.Type.Results)),
		objs: resultObjs(fd.Type.Results, w.info),
	}
	w.sum = newSummary(len(frame.bits))
	w.rets = []*retFrame{frame}
	w.stmt(fd.Body)
	copy(w.sum.results, frame.bits)
	return w.sum
}

// fieldCount counts the values a field list declares (results or params).
func fieldCount(fl *ast.FieldList) int {
	if fl == nil {
		return 0
	}
	n := 0
	for _, f := range fl.List {
		if len(f.Names) == 0 {
			n++
		} else {
			n += len(f.Names)
		}
	}
	return n
}

// resultObjs returns the named result objects positionally (nil entries
// for unnamed results), for naked-return reads.
func resultObjs(fl *ast.FieldList, info *types.Info) []types.Object {
	if fl == nil {
		return nil
	}
	var out []types.Object
	for _, f := range fl.List {
		if len(f.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range f.Names {
			out = append(out, info.Defs[name])
		}
	}
	return out
}

func copyTaint(m map[types.Object]Bits) map[types.Object]Bits {
	out := make(map[types.Object]Bits, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// mergeTaint joins src into dst pointwise.
func mergeTaint(dst, src map[types.Object]Bits) {
	for k, v := range src {
		dst[k] |= v
	}
}

// taintLeq reports whether a ⊑ b (every taint in a is present in b).
func taintLeq(a, b map[types.Object]Bits) bool {
	for k, v := range a {
		if v&^b[k] != 0 {
			return false
		}
	}
	return true
}

// ---- statements ----

func (w *fnWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		if s == nil {
			return
		}
		for _, st := range s.List {
			w.stmt(st)
		}
	case *ast.ExprStmt:
		w.taintOf(s.X)
	case *ast.AssignStmt:
		w.assignStmt(s)
	case *ast.DeclStmt:
		w.declStmt(s)
	case *ast.ReturnStmt:
		w.returnStmt(s)
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.taintOf(s.Cond)
		base := copyTaint(w.taint)
		w.stmt(s.Body)
		thenState := w.taint
		w.taint = base
		w.stmt(s.Else)
		mergeTaint(w.taint, thenState)
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.loop(func() {
			if s.Cond != nil {
				w.taintOf(s.Cond)
			}
			w.stmt(s.Body)
			w.stmt(s.Post)
		})
	case *ast.RangeStmt:
		bits := w.taintOf(s.X)
		w.loop(func() {
			if s.Key != nil {
				w.assignTo(s.Key, bits, s.Tok)
			}
			if s.Value != nil {
				w.assignTo(s.Value, bits, s.Tok)
			}
			w.stmt(s.Body)
		})
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.taintOf(s.Tag)
		w.branches(s.Body, nil, 0)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		var bits Bits
		switch a := s.Assign.(type) {
		case *ast.ExprStmt:
			bits = w.taintOf(a.X)
		case *ast.AssignStmt:
			for _, r := range a.Rhs {
				bits |= w.taintOf(r)
			}
		}
		w.branches(s.Body, s, bits)
	case *ast.SelectStmt:
		w.branches(s.Body, nil, 0)
	case *ast.GoStmt:
		w.callResults(s.Call, 1)
	case *ast.DeferStmt:
		w.callResults(s.Call, 1)
	case *ast.SendStmt:
		w.weakAssign(s.Chan, w.taintOf(s.Value))
	case *ast.IncDecStmt:
		w.taintOf(s.X)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.BranchStmt, *ast.EmptyStmt:
	}
}

// loop runs body repeatedly, merging each iteration's exit state with its
// entry state, until the state stabilizes (bounded; taint only grows under
// the merge, so three rounds cover the chains loops actually build).
func (w *fnWalker) loop(body func()) {
	for i := 0; i < 3; i++ {
		before := copyTaint(w.taint)
		body()
		mergeTaint(w.taint, before)
		if taintLeq(w.taint, before) {
			return
		}
	}
}

// branches analyzes each case/comm clause of a switch, type switch, or
// select body on a copy of the incoming state and joins the outcomes. ts
// and tsBits carry the type-switch binding (`v := x.(type)` taints each
// clause's implicit object with x's taint).
func (w *fnWalker) branches(body *ast.BlockStmt, ts *ast.TypeSwitchStmt, tsBits Bits) {
	if body == nil {
		return
	}
	base := copyTaint(w.taint)
	out := copyTaint(base)
	for _, clause := range body.List {
		w.taint = copyTaint(base)
		switch c := clause.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				if ts == nil { // type-switch case lists are types, not values
					w.taintOf(e)
				}
			}
			if ts != nil {
				if obj := w.info.Implicits[c]; obj != nil {
					w.taint[obj] = tsBits
				}
			}
			for _, st := range c.Body {
				w.stmt(st)
			}
		case *ast.CommClause:
			w.stmt(c.Comm)
			for _, st := range c.Body {
				w.stmt(st)
			}
		}
		mergeTaint(out, w.taint)
	}
	w.taint = out
}

func (w *fnWalker) assignStmt(s *ast.AssignStmt) {
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		bits := w.callResults(s.Rhs[0], len(s.Lhs))
		for i, lhs := range s.Lhs {
			w.assignTo(lhs, bits[i], s.Tok)
		}
		return
	}
	// Parallel assignment: evaluate every RHS before any LHS updates.
	bits := make([]Bits, len(s.Rhs))
	for i, r := range s.Rhs {
		bits[i] = w.taintOf(r)
	}
	for i := range s.Lhs {
		if i < len(bits) {
			w.assignTo(s.Lhs[i], bits[i], s.Tok)
		}
	}
}

func (w *fnWalker) declStmt(s *ast.DeclStmt) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		switch {
		case len(vs.Values) == len(vs.Names):
			for i, name := range vs.Names {
				w.assignIdent(name, w.taintOf(vs.Values[i]))
			}
		case len(vs.Values) == 1:
			bits := w.callResults(vs.Values[0], len(vs.Names))
			for i, name := range vs.Names {
				w.assignIdent(name, bits[i])
			}
		}
	}
}

func (w *fnWalker) returnStmt(s *ast.ReturnStmt) {
	top := w.rets[len(w.rets)-1]
	switch {
	case len(s.Results) == 0:
		for i, obj := range top.objs {
			if obj != nil && i < len(top.bits) {
				top.bits[i] |= w.taint[obj]
			}
		}
	case len(s.Results) == len(top.bits):
		for i, r := range s.Results {
			top.bits[i] |= w.taintOf(r)
		}
	case len(s.Results) == 1: // return f() forwarding multiple values
		bits := w.callResults(s.Results[0], len(top.bits))
		for i := range top.bits {
			top.bits[i] |= bits[i]
		}
	}
}

// assignTo routes an assignment: plain identifiers get a strong update
// (redefinition kills old taint — how a sanitized value replaces a raw
// one), anything deeper is a weak update into the root object's graph.
func (w *fnWalker) assignTo(lhs ast.Expr, bits Bits, tok token.Token) {
	lhs = ast.Unparen(lhs)
	if tok != token.DEFINE && tok != token.ASSIGN {
		bits |= w.taintOf(lhs) // compound ops (+=) accumulate
	}
	if id, ok := lhs.(*ast.Ident); ok {
		w.assignIdent(id, bits)
		return
	}
	w.weakAssign(lhs, bits)
}

func (w *fnWalker) assignIdent(id *ast.Ident, bits Bits) {
	if id.Name == "_" {
		return
	}
	obj := w.info.Defs[id]
	if obj == nil {
		obj = w.info.Uses[id]
	}
	if obj == nil {
		return
	}
	w.taint[obj] = bits
}

// weakAssign records taint flowing into the object graph rooted at target
// (x.f = v, x[i] = v, *p = v). The root keeps its old taint and gains the
// new; stores into a parameter's graph enter the summary so callers see
// the mutation.
func (w *fnWalker) weakAssign(target ast.Expr, bits Bits) {
	target = ast.Unparen(target)
	if sel, ok := target.(*ast.SelectorExpr); ok {
		if key := w.fieldKey(sel); key != "" && w.eng.cfg.RetaintFields[key] {
			bits |= srcBit
		}
	}
	if bits == 0 {
		return
	}
	root := w.rootObj(target)
	if root == nil {
		return
	}
	w.taint[root] |= bits
	// A store into a parameter is caller-visible only when the parameter
	// shares storage with the caller (pointer, slice, map, ...); writes
	// into a by-value copy stay local.
	if idx, ok := w.params[root]; ok && canStore(root.Type()) {
		w.sum.paramStores[idx] |= bits
	}
}

// rootObj walks selector/index/deref chains down to the local or parameter
// the expression is rooted at; nil for package-qualified globals and
// rootless expressions (f().x).
func (w *fnWalker) rootObj(e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := w.info.Uses[x]; obj != nil {
				return obj
			}
			return w.info.Defs[x]
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := w.info.Uses[id].(*types.PkgName); isPkg {
					return nil
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.UnaryExpr:
			// &x roots at x: an unknown callee handed &m can absorb taint
			// into m (json.Decoder.Decode(&m) is verrod's ingress shape).
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}

// ---- expressions ----

func (w *fnWalker) taintOf(e ast.Expr) Bits {
	switch x := e.(type) {
	case nil:
		return 0
	case *ast.Ident:
		obj := w.info.Uses[x]
		if obj == nil {
			obj = w.info.Defs[x]
		}
		if obj == nil {
			return 0
		}
		return w.taint[obj]
	case *ast.ParenExpr:
		return w.taintOf(x.X)
	case *ast.SelectorExpr:
		return w.selector(x)
	case *ast.CallExpr:
		return w.callResults(x, 1)[0]
	case *ast.BinaryExpr:
		bits := w.taintOf(x.X) | w.taintOf(x.Y)
		if w.eng.cfg.ArithSink && isArithOp(x.Op) && w.isNumeric(x.X) {
			w.hitSink(bits, x.Pos(), w.eng.cfg.ArithWhat)
		}
		return bits
	case *ast.UnaryExpr:
		return w.taintOf(x.X)
	case *ast.StarExpr:
		return w.taintOf(x.X)
	case *ast.IndexExpr:
		return w.taintOf(x.X) | w.taintOf(x.Index)
	case *ast.IndexListExpr:
		return w.taintOf(x.X)
	case *ast.SliceExpr:
		return w.taintOf(x.X)
	case *ast.TypeAssertExpr:
		return w.taintOf(x.X)
	case *ast.KeyValueExpr:
		return w.taintOf(x.Value)
	case *ast.CompositeLit:
		var bits Bits
		for _, el := range x.Elts {
			bits |= w.taintOf(el)
		}
		if key := w.litKey(x); key != "" && w.eng.cfg.SourceLits[key] {
			bits |= srcBit
		}
		return bits
	case *ast.FuncLit:
		w.walkLit(x) // analyze the body; the closure value itself is clean
		return 0
	}
	return 0
}

// selector evaluates x.f: package globals are untracked, source fields
// inject srcBit, and a FieldFilter (when configured) confines base-to-field
// propagation to the listed fields.
func (w *fnWalker) selector(sel *ast.SelectorExpr) Bits {
	if id, ok := sel.X.(*ast.Ident); ok {
		if _, isPkg := w.info.Uses[id].(*types.PkgName); isPkg {
			return 0
		}
	}
	base := w.taintOf(sel.X)
	key := w.fieldKey(sel)
	if key != "" && w.eng.cfg.SourceFields[key] {
		return base | srcBit
	}
	if ff := w.eng.cfg.FieldFilter; ff != nil && key != "" && !ff[key] {
		return 0
	}
	return base
}

// fieldKey returns "pkgpath.Type.Field" for a struct-field selection, or
// "" for methods and non-selections. Promoted fields key on the outer type.
func (w *fnWalker) fieldKey(sel *ast.SelectorExpr) string {
	s := w.info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return ""
	}
	named := namedOf(s.Recv())
	if named == nil {
		return ""
	}
	tn := named.Obj()
	if tn.Pkg() == nil {
		return ""
	}
	return tn.Pkg().Path() + "." + tn.Name() + "." + s.Obj().Name()
}

// litKey returns "pkgpath.Type" for a named composite literal.
func (w *fnWalker) litKey(lit *ast.CompositeLit) string {
	named := namedOf(w.info.TypeOf(lit))
	if named == nil {
		return ""
	}
	tn := named.Obj()
	if tn.Pkg() == nil {
		return ""
	}
	return tn.Pkg().Path() + "." + tn.Name()
}

func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

func isArithOp(op token.Token) bool {
	return op == token.ADD || op == token.SUB || op == token.MUL || op == token.QUO
}

// isNumeric reports whether e has a numeric basic type. An operand that
// failed to type-check has no type, and is not numeric: the loader
// tolerates type errors.
func (w *fnWalker) isNumeric(e ast.Expr) bool {
	t := w.info.TypeOf(e)
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsNumeric != 0
}

// walkLit analyzes a closure body in the enclosing state (captured
// variables share taint with the outer function) and returns its per-result
// return taints for higher-order callees.
func (w *fnWalker) walkLit(lit *ast.FuncLit) []Bits {
	frame := &retFrame{
		bits: make([]Bits, fieldCount(lit.Type.Results)),
		objs: resultObjs(lit.Type.Results, w.info),
	}
	w.rets = append(w.rets, frame)
	w.stmt(lit.Body)
	w.rets = w.rets[:len(w.rets)-1]
	return frame.bits
}

// hitSink handles taint arriving at a sink: source-derived taint reports at
// the call site (during the reporting pass); parameter-derived taint enters
// the summary so the leak surfaces where the tainted argument is supplied.
func (w *fnWalker) hitSink(bits Bits, pos token.Pos, what string) {
	if bits == 0 {
		return
	}
	if bits&srcBit != 0 && w.report {
		w.eng.pass.Reportf(pos, w.eng.cfg.Report, what)
	}
	forEachParamBit(bits, func(i int) {
		addHit(w.sum.paramSinks, i, what)
	})
}

// ---- calls ----

// callResults evaluates a (possibly multi-value) RHS expression and returns
// want taint values. Non-call expressions (v, ok := m[k] / x.(T) / <-ch)
// replicate their single taint.
func (w *fnWalker) callResults(e ast.Expr, want int) []Bits {
	if want < 1 {
		want = 1
	}
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		out := make([]Bits, want)
		bits := w.taintOf(e)
		for i := range out {
			out[i] = bits
		}
		return out
	}
	return w.call(call, want)
}

func (w *fnWalker) call(call *ast.CallExpr, want int) []Bits {
	out := w.callRaw(call, want)
	// Error values carry operational metadata, not object payloads; letting
	// them stay tainted floods every `fmt.Fprintln(os.Stderr, err)` with
	// findings. Zeroing them here (for every callee kind — summaries, unknown
	// callees, dynamic calls) declassifies errors globally. The blind spot —
	// raw data smuggled through fmt.Errorf("%v", box) — is documented in
	// DESIGN.md.
	if tv, ok := w.info.Types[call]; ok && tv.Type != nil {
		if tup, isTuple := tv.Type.(*types.Tuple); isTuple {
			for i := 0; i < tup.Len() && i < len(out); i++ {
				if lint.IsError(tup.At(i).Type()) {
					out[i] = 0
				}
			}
		} else if len(out) == 1 && lint.IsError(tv.Type) {
			out[0] = 0
		}
	}
	return out
}

func (w *fnWalker) callRaw(call *ast.CallExpr, want int) []Bits {
	out := make([]Bits, want)
	fill := func(bits Bits) {
		for i := range out {
			out[i] |= bits
		}
	}
	fun := ast.Unparen(call.Fun)

	// Immediately-invoked closure: the results are its return taints.
	if lit, ok := fun.(*ast.FuncLit); ok {
		for _, a := range call.Args {
			w.taintOf(a)
		}
		rets := w.walkLit(lit)
		for i := range out {
			if i < len(rets) {
				out[i] = rets[i]
			}
		}
		return out
	}

	// Conversion T(x): taint passes through.
	if tv, ok := w.info.Types[call.Fun]; ok && tv.IsType() {
		for _, a := range call.Args {
			fill(w.taintOf(a))
		}
		return out
	}

	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := w.info.Uses[id].(*types.Builtin); isBuiltin {
			return w.builtin(id.Name, call, out)
		}
	}

	fn := lint.StaticCallee(w.info, call)

	// Operands: receiver first for method calls through a value selector,
	// then the arguments. Closure literals are walked once here and their
	// return taints kept for higher-order callees.
	var operands []ast.Expr
	if fn != nil && fn.Type() != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if sel, ok := fun.(*ast.SelectorExpr); ok {
				if tv, isType := w.info.Types[sel.X]; !isType || !tv.IsType() {
					operands = append(operands, sel.X)
				}
			}
		}
	}
	operands = append(operands, call.Args...)
	opBits := make([]Bits, len(operands))
	litRets := map[int][]Bits{}
	for i, op := range operands {
		if lit, ok := ast.Unparen(op).(*ast.FuncLit); ok {
			litRets[i] = w.walkLit(lit)
			continue
		}
		opBits[i] = w.taintOf(op)
	}

	if fn == nil {
		// Dynamic call through a func value: propagate conservatively from
		// arguments to results. Sinks inside the callee are not tracked —
		// the documented precision limit of the summary scheme.
		all := w.taintOf(call.Fun)
		for _, b := range opBits {
			all |= b
		}
		fill(all)
		return out
	}

	name := lint.NormName(fn)
	cfg := w.eng.cfg

	if cfg.Cleansers[name] {
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			if root := w.rootObj(sel.X); root != nil {
				w.taint[root] = 0
			}
		}
		return out
	}
	if cfg.Sanitizers[name] || cfg.Declassifiers[name] {
		return out
	}
	if cfg.SourceCalls[name] {
		// The raw payload is tainted; a source's error result carries no
		// object data (and error values flow into stderr prints constantly).
		sig, _ := fn.Type().(*types.Signature)
		for i := range out {
			if sig != nil && sig.Results().Len() == len(out) && lint.IsError(sig.Results().At(i).Type()) {
				continue
			}
			out[i] = srcBit
		}
		return out
	}

	if sink := cfg.Sinks[name]; sink != nil {
		for _, oi := range sink.Operands {
			if oi >= 0 && oi < len(opBits) {
				w.hitSink(opBits[oi], call.Pos(), sink.What)
			}
		}
	}
	if w.isFmtSink(fn) {
		for _, bits := range opBits {
			w.hitSink(bits, call.Pos(), "console output (fmt."+fn.Name()+")")
		}
	}

	if cfg.FuncArgResults[name] {
		var bits Bits
		if rets, ok := litRets[len(operands)-1]; ok {
			for _, b := range rets {
				bits |= b
			}
		} else {
			for _, b := range opBits {
				bits |= b
			}
		}
		fill(bits)
		return out
	}

	if sum := w.eng.sums[name]; sum != nil {
		w.applySummary(call, fn, sum, operands, opBits, out)
		return out
	}

	// Unknown callee (stdlib or a package loaded only for its types): the
	// results conservatively union the operands, and each operand's object
	// graph may have absorbed the union — a method like
	// (*bytes.Buffer).WriteString stores its argument into its receiver.
	var all Bits
	for _, b := range opBits {
		all |= b
	}
	if all != 0 {
		for i, op := range operands {
			if _, isLit := litRets[i]; isLit {
				continue
			}
			// Only reference-like operands can absorb a store; a float64 or
			// struct passed by value is beyond the callee's reach.
			if canStore(w.info.TypeOf(op)) {
				w.weakAssign(op, all)
			}
		}
	}
	fill(all)
	return out
}

// canStore reports whether a value of the type can be mutated through by a
// callee receiving it (pointer-like types share storage with the caller).
func canStore(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface:
		return true
	}
	return false
}

// applySummary translates a converged callee summary into the caller's
// bit-space: parameter bits become the call-site operand taints, parameter
// sinks fire against the supplied arguments, and parameter stores taint the
// argument objects.
func (w *fnWalker) applySummary(call *ast.CallExpr, fn *types.Func, sum *summary, operands []ast.Expr, opBits []Bits, out []Bits) {
	nParams := summaryParams(fn)
	mapOp := func(i int) int { // variadic arguments clamp onto the last parameter
		if nParams > 0 && i >= nParams {
			return nParams - 1
		}
		return i
	}
	paramArgBits := func(p int) Bits {
		var bits Bits
		for j := range opBits {
			if mapOp(j) == p {
				bits |= opBits[j]
			}
		}
		return bits
	}
	translate := func(bits Bits) Bits {
		res := bits & srcBit
		forEachParamBit(bits, func(p int) {
			res |= paramArgBits(p)
		})
		return res
	}

	params := make([]int, 0, len(sum.paramSinks))
	for p := range sum.paramSinks {
		params = append(params, p)
	}
	sort.Ints(params)
	for _, p := range params {
		bits := paramArgBits(p)
		if bits == 0 {
			continue
		}
		for _, hit := range sortedHits(sum.paramSinks[p]) {
			w.hitSink(bits, call.Pos(), viaQualify(hit, fn))
		}
	}

	stores := make([]int, 0, len(sum.paramStores))
	for p := range sum.paramStores {
		stores = append(stores, p)
	}
	sort.Ints(stores)
	for _, p := range stores {
		bits := translate(sum.paramStores[p])
		if bits == 0 {
			continue
		}
		for j := range operands {
			if mapOp(j) == p {
				w.weakAssign(operands[j], bits)
			}
		}
	}

	for i := range out {
		if i < len(sum.results) {
			out[i] = translate(sum.results[i])
		}
	}
}

// summaryParams is the callee's operand count in summary indexing:
// receiver (if any) plus formal parameters.
func summaryParams(fn *types.Func) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return 0
	}
	n := sig.Params().Len()
	if sig.Recv() != nil {
		n++
	}
	return n
}

// viaQualify marks a sink description as reached through fn, keeping at
// most one hop so recursive chains cannot grow descriptions unboundedly.
func viaQualify(hit string, fn *types.Func) string {
	if strings.Contains(hit, " (via ") {
		return hit
	}
	return hit + " (via " + lint.ShortName(lint.NormName(fn)) + ")"
}

// isFmtSink reports whether the call prints via fmt inside a package the
// config treats as publishing its console output.
func (w *fnWalker) isFmtSink(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return false
	}
	switch fn.Name() {
	case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
	default:
		return false
	}
	for _, prefix := range w.eng.cfg.FmtSinkPrefixes {
		if strings.HasPrefix(w.fn.Pkg.Path, prefix) {
			return true
		}
	}
	return false
}

func (w *fnWalker) builtin(name string, call *ast.CallExpr, out []Bits) []Bits {
	var all Bits
	for _, a := range call.Args {
		all |= w.taintOf(a)
	}
	switch name {
	case "append", "min", "max", "complex", "real", "imag":
		for i := range out {
			out[i] = all
		}
	case "copy":
		if len(call.Args) == 2 {
			w.weakAssign(call.Args[0], w.taintOf(call.Args[1]))
		}
	}
	// len, cap, make, new, delete, clear, close, panic, recover, print:
	// results are counts or fresh values — untainted.
	return out
}

package absint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math"

	"verro/internal/lint"
	"verro/internal/lint/cfg"
)

// Tuning knobs of the interpreter. widenAfter trades loop precision for
// convergence speed; maxLitDepth bounds nested function-literal analysis;
// maxSteps is a hard safety net should widening ever fail to converge
// (it cannot on this lattice, but an analysis must not hang the build).
const (
	widenAfter  = 3
	maxLitDepth = 3
	maxRounds   = 8
)

// cell identifies one tracked abstract location: a *types.Var (numeric
// local) or lenCell (the length of a local slice/map/string/channel).
type lenCell struct{ obj types.Object }

// state is the abstract environment at one program point. Absent cells
// hold their type's default interval (defaultFor); reach distinguishes a
// reachable empty environment from bottom.
type state struct {
	vars     map[any]Interval
	volatile map[types.Object]bool
	reach    bool
}

func newState() state {
	return state{vars: map[any]Interval{}, volatile: map[types.Object]bool{}, reach: true}
}

func (st state) clone() state {
	out := state{vars: make(map[any]Interval, len(st.vars)),
		volatile: make(map[types.Object]bool, len(st.volatile)), reach: st.reach}
	for k, v := range st.vars {
		out.vars[k] = v
	}
	for k := range st.volatile {
		out.volatile[k] = true
	}
	return out
}

// defaultFor is the interval an untracked or never-assigned cell holds.
func defaultFor(c any) Interval {
	switch c := c.(type) {
	case lenCell:
		return Interval{0, inf}
	case types.Object:
		return topOf(c.Type())
	}
	return top
}

func (st *state) isVolatile(c any) bool {
	switch c := c.(type) {
	case lenCell:
		return st.volatile[c.obj]
	case types.Object:
		return st.volatile[c]
	}
	return false
}

func (st *state) get(c any) Interval {
	if st.isVolatile(c) {
		return defaultFor(c)
	}
	if iv, ok := st.vars[c]; ok {
		return iv
	}
	return defaultFor(c)
}

func (st *state) set(c any, iv Interval) {
	if st.isVolatile(c) {
		return
	}
	if iv.Eq(defaultFor(c)) {
		delete(st.vars, c)
		return
	}
	st.vars[c] = iv
}

// markVolatile poisons a variable whose value can change behind the
// interpreter's back (address taken, or written by a closure): reads
// degrade to the type's default from here on.
func (st *state) markVolatile(obj types.Object) {
	st.volatile[obj] = true
	delete(st.vars, obj)
	delete(st.vars, lenCell{obj})
}

// joinState is the pointwise lattice join; bottom (unreachable) is the
// identity.
func joinState(a, b state) state {
	if !a.reach {
		return b.clone()
	}
	if !b.reach {
		return a.clone()
	}
	out := newState()
	for k := range a.vars {
		out.set(k, a.get(k).Join(b.get(k)))
	}
	for k := range b.vars {
		if _, done := a.vars[k]; !done {
			out.set(k, a.get(k).Join(b.get(k)))
		}
	}
	for k := range a.volatile {
		out.volatile[k] = true
	}
	for k := range b.volatile {
		out.volatile[k] = true
	}
	// Volatility wins over any recorded value.
	for k := range out.volatile {
		delete(out.vars, k)
		delete(out.vars, lenCell{k})
	}
	return out
}

// widenState extrapolates cells of next that grew past prev.
func widenState(prev, next state) state {
	if !prev.reach || !next.reach {
		return next
	}
	out := next.clone()
	for k := range next.vars {
		out.set(k, prev.get(k).Widen(next.get(k)))
	}
	return out
}

// narrowState refines infinite bounds of widened with recomputed ones.
func narrowState(widened, recomputed state) state {
	if !widened.reach || !recomputed.reach {
		return widened
	}
	out := widened.clone()
	for k := range widened.vars {
		out.set(k, widened.get(k).Narrow(recomputed.get(k)))
	}
	return out
}

func eqState(a, b state) bool {
	if a.reach != b.reach {
		return false
	}
	if !a.reach {
		return true
	}
	if len(a.vars) != len(b.vars) || len(a.volatile) != len(b.volatile) {
		return false
	}
	for k, v := range a.vars {
		if bv, ok := b.vars[k]; !ok || !bv.Eq(v) {
			return false
		}
	}
	for k := range a.volatile {
		if !b.volatile[k] {
			return false
		}
	}
	return true
}

// topOf is the type-informed unknown: unsigned integers are nonnegative,
// sized integers carry their representable range, everything else is top.
func topOf(t types.Type) Interval {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return top
	}
	switch b.Kind() {
	case types.Uint8:
		return Interval{0, 255}
	case types.Uint16:
		return Interval{0, 65535}
	case types.Uint32:
		return Interval{0, 4294967295}
	case types.Uint, types.Uint64, types.Uintptr:
		return Interval{0, inf}
	case types.Int8:
		return Interval{-128, 127}
	case types.Int16:
		return Interval{-32768, 32767}
	case types.Int32:
		return Interval{-2147483648, 2147483647}
	default:
		return top
	}
}

func isNumeric(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0 && b.Info()&types.IsComplex == 0
}

func isInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isUnsigned(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsUnsigned != 0
}

// hasLen reports whether len() of the type reads a tracked length cell.
func hasLenCell(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Chan:
		return true
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		return b.Info()&types.IsString != 0
	}
	return false
}

// engine carries the whole-program summary table: normalized function
// name → result intervals computed with top parameters.
type engine struct {
	prog *program
	sums map[string][]Interval
}

// computeSummaries iterates every function's result intervals to a
// whole-program fixpoint, bottom-up in sorted name order with widening
// after the early rounds, mirroring the flow engine's summary loop.
func (e *engine) computeSummaries() {
	names := e.prog.fnNames()
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, name := range names {
			fn := e.prog.fns[name]
			results := e.interpret(fn.pkg, fn.decl.Type, fn.decl.Body, nil, nil, 0)
			old := e.sums[name]
			merged := make([]Interval, len(results))
			for i := range results {
				prev := bottomIv
				if i < len(old) {
					prev = old[i]
				}
				merged[i] = prev.Join(results[i])
				if round >= widenAfter {
					merged[i] = prev.Widen(merged[i])
				}
				if !merged[i].Eq(prev) {
					changed = true
				}
			}
			e.sums[name] = merged
		}
		if !changed {
			return
		}
	}
	// Out of rounds: drop every summary to top-of-type so the reporting
	// pass never consumes an unconverged (too-narrow) summary.
	for _, name := range names {
		fn := e.prog.fns[name]
		sig := fn.obj.Type().(*types.Signature)
		outs := make([]Interval, sig.Results().Len())
		for i := range outs {
			outs[i] = topOf(sig.Results().At(i).Type())
		}
		e.sums[name] = outs
	}
}

// analyzeDecl runs the reporting pass over one function with the given
// policy hooks attached.
func (e *engine) analyzeDecl(fn *fnInfo, hooks []hookFns) {
	e.interpret(fn.pkg, fn.decl.Type, fn.decl.Body, fn.decl.Recv, hooks, 0)
}

// interpret lowers and abstractly executes one function body: ascending
// worklist fixpoint with widening, one narrowing pass, and — when hooks
// are attached — a final reporting walk. It returns the joined result
// intervals.
func (e *engine) interpret(pkg *lint.Package, ftyp *ast.FuncType, body *ast.BlockStmt,
	recv *ast.FieldList, hooks []hookFns, depth int) []Interval {

	entry := newState()
	bindFieldList(pkg.Info, recv, &entry, nil)
	if ftyp != nil {
		bindFieldList(pkg.Info, ftyp.Params, &entry, nil)
	}
	nResults := 0
	var resultObjs []types.Object
	if ftyp != nil && ftyp.Results != nil {
		for _, f := range ftyp.Results.List {
			if len(f.Names) == 0 {
				nResults++
				continue
			}
			for _, name := range f.Names {
				nResults++
				if obj := pkg.Info.Defs[name]; obj != nil {
					resultObjs = append(resultObjs, obj)
					// Named results start at their zero value.
					if isNumeric(obj.Type()) {
						entry.set(obj, point(0))
					}
				}
			}
		}
	}

	ip := &interp{e: e, pkg: pkg, hooks: hooks, depth: depth,
		results: make([]Interval, nResults), resultObjs: resultObjs}
	for i := range ip.results {
		ip.results[i] = bottomIv
	}
	ip.runBody(body, entry)
	return ip.results
}

// bindFieldList seeds parameter (or receiver) cells. ivs, when non-nil,
// provides per-parameter intervals (par.For closure bounds, direct
// function-literal calls); otherwise parameters are top-of-type.
func bindFieldList(info *types.Info, fields *ast.FieldList, st *state, ivs []Interval) {
	if fields == nil {
		return
	}
	i := 0
	for _, f := range fields.List {
		names := f.Names
		if len(names) == 0 {
			i++
			continue
		}
		for _, name := range names {
			obj := info.Defs[name]
			if obj != nil && isNumeric(obj.Type()) {
				iv := topOf(obj.Type())
				if ivs != nil && i < len(ivs) {
					iv = iv.Meet(ivs[i])
					if iv.IsBottom() {
						iv = topOf(obj.Type())
					}
				}
				st.set(obj, iv)
			}
			i++
		}
	}
}

// interp is the per-function-body interpreter.
type interp struct {
	e     *engine
	pkg   *lint.Package
	hooks []hookFns
	depth int

	// reporting is true during the final walk — the only phase in which
	// hooks fire and function literals are descended into.
	reporting bool

	results    []Interval
	resultObjs []types.Object
}

func (ip *interp) info() *types.Info { return ip.pkg.Info }

// runBody drives the three phases over one lowered body.
func (ip *interp) runBody(body *ast.BlockStmt, entry state) {
	c := cfg.Build(body)
	n := len(c.Blocks)
	in := make([]state, n)
	out := make([]state, n)
	visits := make([]int, n)
	in[c.Entry.ID] = entry

	// Ascending fixpoint with widening.
	queued := make([]bool, n)
	wl := []int{c.Entry.ID}
	queued[c.Entry.ID] = true
	steps := 0
	maxSteps := 64*n + 256
	for len(wl) > 0 {
		if steps++; steps > maxSteps {
			break // safety net; widening makes this unreachable in practice
		}
		id := wl[0]
		wl = wl[1:]
		queued[id] = false
		if !in[id].reach {
			continue
		}
		st := in[id].clone()
		ip.execBlock(c.Blocks[id], &st)
		out[id] = st
		for _, ed := range c.Blocks[id].Succs {
			s2 := st.clone()
			ip.applyEdge(ed, &s2)
			if !s2.reach {
				continue
			}
			tgt := ed.To.ID
			merged := joinState(in[tgt], s2)
			if visits[tgt] >= widenAfter {
				merged = widenState(in[tgt], merged)
			}
			if !eqState(merged, in[tgt]) {
				in[tgt] = merged
				visits[tgt]++
				if !queued[tgt] {
					wl = append(wl, tgt)
					queued[tgt] = true
				}
			}
		}
	}

	// One descending (narrowing) pass: recompute each block's entry from
	// its predecessors' final outputs and claw back infinite bounds the
	// widening introduced.
	preds := make([][]edgeFrom, n)
	for _, b := range c.Blocks {
		for _, ed := range b.Succs {
			preds[ed.To.ID] = append(preds[ed.To.ID], edgeFrom{from: b.ID, e: ed})
		}
	}
	for id := 0; id < n; id++ {
		if id != c.Entry.ID && len(preds[id]) > 0 {
			recomputed := state{}
			for _, pe := range preds[id] {
				if !out[pe.from].reach {
					continue
				}
				s2 := out[pe.from].clone()
				ip.applyEdge(pe.e, &s2)
				if !s2.reach {
					continue
				}
				recomputed = joinState(recomputed, s2)
			}
			in[id] = narrowState(in[id], recomputed)
		}
		if in[id].reach {
			st := in[id].clone()
			ip.execBlock(c.Blocks[id], &st)
			out[id] = st
		}
	}

	// Reporting pass: hooks fire, function literals are analyzed.
	if len(ip.hooks) > 0 {
		ip.reporting = true
		for id := 0; id < n; id++ {
			if !in[id].reach {
				continue
			}
			st := in[id].clone()
			ip.execBlock(c.Blocks[id], &st)
		}
		ip.reporting = false
	}
}

type edgeFrom struct {
	from int
	e    cfg.Edge
}

// execBlock runs the block's straight-line statements, then evaluates its
// terminator condition or return.
func (ip *interp) execBlock(b *cfg.Block, st *state) {
	for _, s := range b.Stmts {
		ip.execStmt(s, st)
	}
	if b.Cond != nil {
		ip.eval(b.Cond, st)
	}
	if b.Ret != nil {
		ip.execReturn(b.Ret, st)
	}
}

func (ip *interp) execStmt(s ast.Stmt, st *state) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		ip.eval(s.X, st)
	case *ast.AssignStmt:
		ip.execAssign(s, st)
	case *ast.IncDecStmt:
		delta := point(1)
		if s.Tok == token.DEC {
			delta = point(-1)
		}
		iv := ip.eval(s.X, st).Add(delta)
		ip.assignTo(s.X, ip.clamp(s.X, iv), st)
	case *ast.DeclStmt:
		ip.execDecl(s.Decl, st)
	case *ast.GoStmt:
		ip.eval(s.Call, st)
	case *ast.DeferStmt:
		ip.eval(s.Call, st)
	case *ast.SendStmt:
		ip.eval(s.Chan, st)
		ip.eval(s.Value, st)
	case *ast.ReturnStmt:
		// Returns are normally terminators; one can still appear here via
		// a synthesized wrapper. Treat it as its terminator form.
		ip.execReturn(s, st)
	}
}

func (ip *interp) execReturn(s *ast.ReturnStmt, st *state) {
	if len(s.Results) == 0 {
		// Bare return: named results carry the values.
		for i, obj := range ip.resultObjs {
			if i < len(ip.results) {
				ip.results[i] = ip.results[i].Join(st.get(obj))
			}
		}
		return
	}
	if len(s.Results) == 1 && len(ip.results) > 1 {
		// return f() spreading a multi-value call.
		if call, ok := unparen(s.Results[0]).(*ast.CallExpr); ok {
			res := ip.evalCall(call, st)
			for i := range ip.results {
				iv := top
				if i < len(res) {
					iv = res[i]
				}
				ip.results[i] = ip.results[i].Join(iv)
			}
			return
		}
	}
	for i, r := range s.Results {
		iv := ip.eval(r, st)
		if i < len(ip.results) {
			ip.results[i] = ip.results[i].Join(iv)
		}
	}
}

func (ip *interp) execDecl(d ast.Decl, st *state) {
	gd, ok := d.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if len(vs.Values) == 0 {
			// Zero-value declaration: numerics are 0, slices/maps are nil
			// (length 0).
			for _, name := range vs.Names {
				obj := ip.info().Defs[name]
				if obj == nil {
					continue
				}
				if isNumeric(obj.Type()) {
					st.set(obj, point(0))
				} else if hasLenCell(obj.Type()) {
					st.set(lenCell{obj}, point(0))
				}
			}
			continue
		}
		ip.assignPairs(identExprs(vs.Names), vs.Values, st)
	}
}

func identExprs(ids []*ast.Ident) []ast.Expr {
	out := make([]ast.Expr, len(ids))
	for i, id := range ids {
		out[i] = id
	}
	return out
}

func (ip *interp) execAssign(s *ast.AssignStmt, st *state) {
	if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
		ip.assignPairs(s.Lhs, s.Rhs, st)
		return
	}
	// Compound assignment: x op= y  ⇒  x = x op y.
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return
	}
	lhs, rhs := s.Lhs[0], s.Rhs[0]
	x := ip.eval(lhs, st)
	y := ip.eval(rhs, st)
	var op token.Token
	switch s.Tok {
	case token.ADD_ASSIGN:
		op = token.ADD
	case token.SUB_ASSIGN:
		op = token.SUB
	case token.MUL_ASSIGN:
		op = token.MUL
	case token.QUO_ASSIGN:
		op = token.QUO
	case token.REM_ASSIGN:
		op = token.REM
	default:
		ip.assignTo(lhs, topOfExpr(ip, lhs), st)
		return
	}
	integer := isInteger(ip.typeOf(lhs))
	if op == token.QUO || op == token.REM {
		ip.fireDiv(s.TokPos, y, integer)
	}
	iv := applyArith(op, x, y, integer)
	ip.assignTo(lhs, ip.clamp(lhs, iv), st)
}

func topOfExpr(ip *interp, e ast.Expr) Interval { return topOf(ip.typeOf(e)) }

// assignPairs implements parallel assignment, including the multi-value
// single-RHS forms (call, comma-ok, range is handled by edges).
func (ip *interp) assignPairs(lhs, rhs []ast.Expr, st *state) {
	if len(rhs) == 1 && len(lhs) > 1 {
		// Multi-value RHS.
		var res []Interval
		if call, ok := unparen(rhs[0]).(*ast.CallExpr); ok {
			res = ip.evalCall(call, st)
		} else {
			ip.eval(rhs[0], st) // comma-ok forms: map read, type assert, recv
		}
		for i, l := range lhs {
			iv := top
			if i < len(res) {
				iv = res[i]
			}
			ip.assignTo(l, ip.clamp(l, iv), st)
		}
		return
	}
	type rhsVal struct {
		iv     Interval
		length Interval
		hasLen bool
	}
	vals := make([]rhsVal, len(rhs))
	for i, r := range rhs {
		v := rhsVal{iv: ip.eval(r, st)}
		v.length, v.hasLen = ip.lenOfValue(r, st)
		vals[i] = v
	}
	for i, l := range lhs {
		if i >= len(vals) {
			break
		}
		ip.assignTo(l, ip.clamp(l, vals[i].iv), st)
		if vals[i].hasLen {
			if obj, ok := ip.lhsObj(l); ok && hasLenCell(obj.Type()) {
				st.set(lenCell{obj}, vals[i].length)
			}
		}
	}
}

// lhsObj resolves an assignable identifier to its tracked object.
func (ip *interp) lhsObj(e ast.Expr) (types.Object, bool) {
	id, ok := unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil, false
	}
	return ip.localVar(id)
}

// assignTo performs the store for one LHS expression. Only plain local
// identifiers update the state; writes through indexes, fields, and
// dereferences are evaluated for their hooks and otherwise ignored
// (their targets are untracked).
func (ip *interp) assignTo(l ast.Expr, iv Interval, st *state) {
	switch l := unparen(l).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		if obj, ok := ip.localVar(l); ok && isNumeric(obj.Type()) {
			st.set(obj, iv)
		}
	case *ast.IndexExpr:
		ip.evalIndex(l, st)
	case *ast.SelectorExpr:
		ip.eval(l.X, st)
	case *ast.StarExpr:
		ip.eval(l.X, st)
	}
}

// localVar resolves an identifier to a tracked local variable: a
// *types.Var that is not a field and not package-level (package state
// can change across any call, so it stays at top).
func (ip *interp) localVar(id *ast.Ident) (types.Object, bool) {
	obj := ip.objOf(id)
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil, false
	}
	if v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
		return nil, false
	}
	return obj, true
}

func (ip *interp) objOf(id *ast.Ident) types.Object {
	if o := ip.info().Uses[id]; o != nil {
		return o
	}
	return ip.info().Defs[id]
}

func (ip *interp) typeOf(e ast.Expr) types.Type {
	if t := ip.info().TypeOf(e); t != nil {
		return t
	}
	return types.Typ[types.Invalid]
}

// clamp meets a computed interval with the expression's type range,
// integralizing integer bounds. A value that may leave a sized type's
// range wraps, so knowledge degrades to the full type range.
func (ip *interp) clamp(e ast.Expr, iv Interval) Interval {
	t := ip.typeOf(e)
	if !isNumeric(t) || iv.IsBottom() {
		return iv
	}
	tr := topOf(t)
	if isUnsigned(t) && iv.Lo < 0 {
		return tr // possible wraparound: anything representable
	}
	if iv.Lo < tr.Lo || iv.Hi > tr.Hi {
		if !math.IsInf(tr.Lo, -1) || !math.IsInf(tr.Hi, 1) {
			return tr
		}
	}
	out := iv.Meet(tr)
	if isInteger(t) {
		out = out.integralize()
	}
	if out.IsBottom() {
		return tr
	}
	return out
}

// ---------------------------------------------------------------------
// Expression evaluation

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// eval computes the expression's interval, recursing into every
// subexpression so the reporting hooks see each division, index, and
// call exactly where it occurs.
func (ip *interp) eval(e ast.Expr, st *state) Interval {
	if e == nil {
		return top
	}
	// Constants are exact, and their subexpressions are constant too —
	// no hooks can fire inside them.
	if tv, ok := ip.info().Types[e]; ok && tv.Value != nil {
		if iv, ok := constInterval(tv.Value); ok {
			return iv
		}
		return top
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return ip.eval(e.X, st)
	case *ast.Ident:
		if obj, ok := ip.localVar(e); ok && isNumeric(obj.Type()) {
			return st.get(obj)
		}
		return topOfExpr(ip, e)
	case *ast.UnaryExpr:
		return ip.evalUnary(e, st)
	case *ast.BinaryExpr:
		return ip.evalBinary(e, st)
	case *ast.CallExpr:
		res := ip.evalCall(e, st)
		if len(res) > 0 {
			return res[0]
		}
		return top
	case *ast.SelectorExpr:
		// Evaluate the base for hooks unless it is a package qualifier.
		if id, ok := e.X.(*ast.Ident); !ok || ip.pkgPathOf(id) == "" {
			ip.eval(e.X, st)
		}
		return topOfExpr(ip, e)
	case *ast.IndexExpr:
		return ip.evalIndex(e, st)
	case *ast.IndexListExpr:
		ip.eval(e.X, st)
		return topOfExpr(ip, e)
	case *ast.SliceExpr:
		ip.eval(e.X, st)
		if e.Low != nil {
			ip.eval(e.Low, st)
		}
		if e.High != nil {
			ip.eval(e.High, st)
		}
		if e.Max != nil {
			ip.eval(e.Max, st)
		}
		return top
	case *ast.StarExpr:
		ip.eval(e.X, st)
		return topOfExpr(ip, e)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				ip.eval(kv.Value, st)
				continue
			}
			ip.eval(el, st)
		}
		return top
	case *ast.TypeAssertExpr:
		ip.eval(e.X, st)
		return topOfExpr(ip, e)
	case *ast.FuncLit:
		ip.evalFuncLit(e, nil, st)
		return top
	default:
		return top
	}
}

func constInterval(v constant.Value) (Interval, bool) {
	switch v.Kind() {
	case constant.Int, constant.Float:
		f, _ := constant.Float64Val(constant.ToFloat(v))
		if math.IsNaN(f) {
			return top, true
		}
		return point(f), true
	}
	return Interval{}, false
}

func (ip *interp) evalUnary(e *ast.UnaryExpr, st *state) Interval {
	switch e.Op {
	case token.SUB:
		return ip.clamp(e, ip.eval(e.X, st).Neg())
	case token.ADD:
		return ip.eval(e.X, st)
	case token.AND:
		// Address taken: the variable can now change behind our back.
		ip.eval(e.X, st)
		if id, ok := unparen(e.X).(*ast.Ident); ok {
			if obj, ok := ip.localVar(id); ok {
				st.markVolatile(obj)
			}
		}
		return top
	default:
		ip.eval(e.X, st)
		return topOfExpr(ip, e)
	}
}

func (ip *interp) evalBinary(e *ast.BinaryExpr, st *state) Interval {
	switch e.Op {
	case token.LAND:
		ip.eval(e.X, st)
		// The right operand only runs when the left held: evaluate it
		// under that refinement so `n > 0 && sum/n > t` stays clean.
		s2 := st.clone()
		ip.refine(&s2, e.X, true)
		if s2.reach {
			ip.eval(e.Y, &s2)
		}
		return top
	case token.LOR:
		ip.eval(e.X, st)
		s2 := st.clone()
		ip.refine(&s2, e.X, false)
		if s2.reach {
			ip.eval(e.Y, &s2)
		}
		return top
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		x := ip.eval(e.X, st)
		y := ip.eval(e.Y, st)
		ip.fireProbCmp(e, x, y, st)
		return top
	case token.QUO, token.REM:
		x := ip.eval(e.X, st)
		y := ip.eval(e.Y, st)
		integer := isInteger(ip.typeOf(e))
		ip.fireDiv(e.OpPos, y, integer)
		return ip.clamp(e, applyArith(e.Op, x, y, integer))
	default:
		x := ip.eval(e.X, st)
		y := ip.eval(e.Y, st)
		return ip.clamp(e, applyArith(e.Op, x, y, isInteger(ip.typeOf(e))))
	}
}

// applyArith folds one arithmetic operator over intervals.
func applyArith(op token.Token, x, y Interval, integer bool) Interval {
	switch op {
	case token.ADD:
		return x.Add(y)
	case token.SUB:
		return x.Sub(y)
	case token.MUL:
		return x.Mul(y)
	case token.QUO:
		return x.Div(y, integer)
	case token.REM:
		return x.Rem(y)
	case token.AND:
		// Both nonnegative: result within the smaller operand.
		if x.Lo >= 0 && y.Lo >= 0 {
			return mk(0, math.Min(x.Hi, y.Hi))
		}
		return top
	case token.OR, token.XOR:
		if x.Lo >= 0 && y.Lo >= 0 {
			return mk(0, x.Hi+y.Hi)
		}
		return top
	case token.AND_NOT:
		if x.Lo >= 0 {
			return mk(0, x.Hi)
		}
		return top
	case token.SHL:
		if x.Lo >= 0 {
			return mk(0, inf)
		}
		return top
	case token.SHR:
		if x.Lo >= 0 {
			return mk(0, x.Hi)
		}
		return top
	default:
		return top
	}
}

func (ip *interp) evalIndex(e *ast.IndexExpr, st *state) Interval {
	base := ip.typeOf(e.X)
	// Generic instantiation also parses as an index expression.
	if _, isSig := base.Underlying().(*types.Signature); isSig {
		ip.eval(e.X, st)
		return topOfExpr(ip, e)
	}
	ip.eval(e.X, st)
	idx := ip.eval(e.Index, st)
	if indexable(base) {
		length, _ := ip.lenOfValue(e.X, st)
		ip.fireIndex(e.Index.Pos(), idx, length)
	}
	return topOfExpr(ip, e)
}

// indexable reports whether the type is a slice, array, pointer-to-array,
// or string — the containers whose indexing panics out of [0, len).
func indexable(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	case *types.Pointer:
		_, ok := u.Elem().Underlying().(*types.Array)
		return ok
	case *types.Basic:
		return u.Info()&types.IsString != 0
	}
	return false
}

// lenOfValue computes the interval of len(e) and whether the expression
// carries length information worth propagating on assignment.
func (ip *interp) lenOfValue(e ast.Expr, st *state) (Interval, bool) {
	e = unparen(e)
	t := ip.typeOf(e)
	// Fixed-size arrays (and pointers to them) have exact lengths.
	if arr, ok := t.Underlying().(*types.Array); ok {
		return point(float64(arr.Len())), true
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		if arr, ok := p.Elem().Underlying().(*types.Array); ok {
			return point(float64(arr.Len())), true
		}
	}
	switch e := e.(type) {
	case *ast.Ident:
		if obj, ok := ip.localVar(e); ok && hasLenCell(obj.Type()) {
			return st.get(lenCell{obj}), true
		}
	case *ast.BasicLit:
		if e.Kind == token.STRING {
			if tv, ok := ip.info().Types[e]; ok && tv.Value != nil {
				return point(float64(len(constant.StringVal(tv.Value)))), true
			}
		}
	case *ast.CompositeLit:
		if _, ok := t.Underlying().(*types.Slice); ok {
			for _, el := range e.Elts {
				if _, keyed := el.(*ast.KeyValueExpr); keyed {
					return Interval{0, inf}, false
				}
			}
			return point(float64(len(e.Elts))), true
		}
	case *ast.CallExpr:
		return ip.lenOfCall(e, st)
	case *ast.SliceExpr:
		return ip.lenOfSlice(e, st), true
	}
	return Interval{0, inf}, false
}

// lenOfCall propagates lengths through the length-constructing calls:
// make, append, and the par mappers (whose result has exactly n items).
func (ip *interp) lenOfCall(e *ast.CallExpr, st *state) (Interval, bool) {
	switch callee := ip.calleeOf(e); callee {
	case "make":
		if len(e.Args) >= 2 {
			return ip.evalQuiet(e.Args[1], st).Meet(Interval{0, inf}), true
		}
		if len(e.Args) == 1 { // make(map[...]...) / make(chan ...)
			return point(0), true
		}
	case "append":
		if len(e.Args) == 0 {
			return Interval{0, inf}, false
		}
		base, _ := ip.lenOfValue(e.Args[0], st)
		if e.Ellipsis != token.NoPos {
			return base.Add(Interval{0, inf}).Meet(Interval{0, inf}), true
		}
		return base.Add(point(float64(len(e.Args) - 1))), true
	case "verro/internal/par.Map":
		if len(e.Args) >= 1 {
			return ip.evalQuiet(e.Args[0], st).Meet(Interval{0, inf}), true
		}
	case "verro/internal/par.MapPool":
		if len(e.Args) >= 2 {
			return ip.evalQuiet(e.Args[1], st).Meet(Interval{0, inf}), true
		}
	}
	return Interval{0, inf}, false
}

// lenOfSlice computes len(x[lo:hi]) = hi − lo.
func (ip *interp) lenOfSlice(e *ast.SliceExpr, st *state) Interval {
	baseLen, _ := ip.lenOfValue(e.X, st)
	lo := point(0)
	if e.Low != nil {
		lo = ip.evalQuiet(e.Low, st)
	}
	hi := baseLen
	if e.High != nil {
		hi = ip.evalQuiet(e.High, st)
	}
	return hi.Sub(lo).Meet(Interval{0, inf})
}

// evalQuiet evaluates without firing hooks (used where the expression was
// or will be evaluated in its own right, e.g. inside refinements).
func (ip *interp) evalQuiet(e ast.Expr, st *state) Interval {
	saved := ip.reporting
	ip.reporting = false
	iv := ip.eval(e, st)
	ip.reporting = saved
	return iv
}

// pkgPathOf resolves an identifier used as a package qualifier.
func (ip *interp) pkgPathOf(id *ast.Ident) string {
	if pn, ok := ip.info().Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// calleeOf names the call target: a builtin name ("len"), a normalized
// full function name, or "" when unresolvable (dynamic call, conversion).
func (ip *interp) calleeOf(call *ast.CallExpr) string {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := ip.objOf(fun).(type) {
		case *types.Builtin:
			return obj.Name()
		case *types.Func:
			return normName(obj)
		}
	case *ast.SelectorExpr:
		if fn, ok := ip.info().Uses[fun.Sel].(*types.Func); ok {
			return normName(fn)
		}
	case *ast.IndexExpr:
		// Explicitly instantiated generic: resolve through the inner name.
		if inner, ok := unparen(fun.X).(*ast.Ident); ok {
			if fn, ok := ip.objOf(inner).(*types.Func); ok {
				return normName(fn)
			}
		}
		if sel, ok := unparen(fun.X).(*ast.SelectorExpr); ok {
			if fn, ok := ip.info().Uses[sel.Sel].(*types.Func); ok {
				return normName(fn)
			}
		}
	}
	return ""
}

// ---------------------------------------------------------------------
// Calls

func (ip *interp) evalCall(call *ast.CallExpr, st *state) []Interval {
	// Type conversion: T(x).
	if tv, ok := ip.info().Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			iv := ip.eval(call.Args[0], st)
			return []Interval{ip.clamp(call, iv)}
		}
		return []Interval{top}
	}

	callee := ip.calleeOf(call)

	// Builtins with value semantics.
	switch callee {
	case "len", "cap":
		if len(call.Args) == 1 {
			ip.eval(call.Args[0], st)
			if callee == "len" {
				iv, _ := ip.lenOfValue(call.Args[0], st)
				return []Interval{iv}
			}
			return []Interval{{0, inf}}
		}
	case "min", "max":
		var acc Interval
		for i, a := range call.Args {
			iv := ip.eval(a, st)
			if i == 0 {
				acc = iv
			} else if callee == "min" {
				acc = minIv(acc, iv)
			} else {
				acc = maxIv(acc, iv)
			}
		}
		return []Interval{acc}
	case "make", "append", "copy", "delete", "new", "panic", "print", "println", "clear", "close", "complex", "real", "imag", "recover":
		for _, a := range call.Args {
			ip.eval(a, st)
		}
		switch callee {
		case "copy":
			return []Interval{{0, inf}}
		case "real", "imag":
			return []Interval{top}
		}
		return []Interval{top}
	}

	// Method receiver is evaluated for its hooks.
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, isIdent := sel.X.(*ast.Ident); !isIdent || ip.pkgPathOf(id) == "" {
			ip.eval(sel.X, st)
		}
	}

	// Parallel mappers: the closure's index parameters are bounded by the
	// call's n argument, so kernel loops stay checkable inside par bodies.
	if bounds, fnArg, ok := ip.parClosureBounds(callee, call, st); ok {
		args := ip.evalArgs(call, st, fnArg)
		ip.fireCall(call, callee, args)
		if lit, isLit := unparen(call.Args[fnArg]).(*ast.FuncLit); isLit {
			ip.evalFuncLit(lit, bounds, st)
		} else {
			ip.eval(call.Args[fnArg], st)
		}
		return ip.resultTops(call)
	}

	// Direct call of a function literal: bind its parameters to the
	// argument intervals.
	if lit, ok := unparen(call.Fun).(*ast.FuncLit); ok {
		args := ip.evalArgs(call, st, -1)
		ip.evalFuncLit(lit, args, st)
		return ip.resultTops(call)
	}

	args := ip.evalArgs(call, st, -1)
	ip.fireCall(call, callee, args)

	if res, ok := nativeCall(callee, args, call, ip, st); ok {
		return padResults(res, ip.resultTops(call))
	}
	if sum, ok := ip.e.sums[callee]; ok {
		return padResults(clampAll(sum, ip.resultTypes(call)), ip.resultTops(call))
	}
	return ip.resultTops(call)
}

// evalArgs evaluates every argument (skipping skipIdx, which the caller
// handles specially) and returns their intervals.
func (ip *interp) evalArgs(call *ast.CallExpr, st *state, skipIdx int) []Interval {
	out := make([]Interval, len(call.Args))
	for i, a := range call.Args {
		if i == skipIdx {
			out[i] = top
			continue
		}
		out[i] = ip.eval(a, st)
	}
	return out
}

// parClosureBounds recognizes the worker-pool mappers and computes the
// interval bounds of their closure parameters.
func (ip *interp) parClosureBounds(callee string, call *ast.CallExpr, st *state) (bounds []Interval, fnArg int, ok bool) {
	var nArg int
	switch callee {
	case "verro/internal/par.For", "(verro/internal/par.Pool).For":
		nArg, fnArg = 0, 2
	case "verro/internal/par.Map":
		nArg, fnArg = 0, 2
	case "verro/internal/par.MapPool":
		nArg, fnArg = 1, 3
	default:
		return nil, 0, false
	}
	if fnArg >= len(call.Args) {
		return nil, 0, false
	}
	n := ip.evalQuiet(call.Args[nArg], st)
	hi := n.Hi - 1
	if n.IsBottom() {
		hi = inf
	}
	idx := Interval{0, math.Max(hi, 0)}
	switch callee {
	case "verro/internal/par.Map", "verro/internal/par.MapPool":
		return []Interval{idx}, fnArg, true
	default: // For: fn(lo, hi) with 0 ≤ lo < hi ≤ n
		upper := math.Max(n.Hi, 0)
		return []Interval{idx, {0, upper}}, fnArg, true
	}
}

// resultTypes returns the call's result types (empty for void).
func (ip *interp) resultTypes(call *ast.CallExpr) []types.Type {
	t := ip.typeOf(call)
	if tup, ok := t.(*types.Tuple); ok {
		out := make([]types.Type, tup.Len())
		for i := 0; i < tup.Len(); i++ {
			out[i] = tup.At(i).Type()
		}
		return out
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.Invalid {
		return nil
	}
	return []types.Type{t}
}

func (ip *interp) resultTops(call *ast.CallExpr) []Interval {
	ts := ip.resultTypes(call)
	out := make([]Interval, len(ts))
	for i, t := range ts {
		out[i] = topOf(t)
	}
	if len(out) == 0 {
		out = []Interval{top}
	}
	return out
}

func clampAll(ivs []Interval, ts []types.Type) []Interval {
	out := make([]Interval, len(ivs))
	for i, iv := range ivs {
		out[i] = iv
		if i < len(ts) {
			out[i] = iv.Meet(topOf(ts[i]))
			if out[i].IsBottom() {
				out[i] = iv
			}
		}
	}
	return out
}

func padResults(res, tops []Interval) []Interval {
	out := make([]Interval, len(tops))
	for i := range tops {
		if i < len(res) && !res[i].IsBottom() {
			out[i] = res[i].Meet(tops[i])
			if out[i].IsBottom() {
				out[i] = tops[i]
			}
		} else if i < len(res) {
			out[i] = res[i] // bottom: callee never returns this result
		} else {
			out[i] = tops[i]
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Function literals

// evalFuncLit handles a closure: variables it writes become volatile in
// the enclosing state (they can change behind the interpreter's back at
// any later point), and during the reporting pass its body is analyzed
// with the enclosing state snapshot as the environment for captures.
func (ip *interp) evalFuncLit(lit *ast.FuncLit, params []Interval, st *state) {
	ip.havocCaptured(lit, st)
	if !ip.reporting || ip.depth >= maxLitDepth {
		return
	}
	entry := st.clone()
	entry.reach = true
	bindFieldList(ip.info(), lit.Type.Params, &entry, params)
	nRes := 0
	if lit.Type.Results != nil {
		nRes = lit.Type.Results.NumFields()
	}
	sub := &interp{e: ip.e, pkg: ip.pkg, hooks: ip.hooks, depth: ip.depth + 1,
		results: make([]Interval, nRes)}
	for i := range sub.results {
		sub.results[i] = bottomIv
	}
	// Named results of the literal.
	if lit.Type.Results != nil {
		for _, f := range lit.Type.Results.List {
			for _, name := range f.Names {
				if obj := ip.info().Defs[name]; obj != nil {
					sub.resultObjs = append(sub.resultObjs, obj)
					if isNumeric(obj.Type()) {
						entry.set(obj, point(0))
					}
				}
			}
		}
	}
	sub.runBody(lit.Body, entry)
}

// havocCaptured marks every enclosing-scope variable the literal writes
// (assignment, ++/--, or address-of) volatile.
func (ip *interp) havocCaptured(lit *ast.FuncLit, st *state) {
	mark := func(e ast.Expr) {
		if id, ok := unparen(e).(*ast.Ident); ok {
			if obj, ok := ip.localVar(id); ok && (obj.Pos() < lit.Pos() || obj.Pos() > lit.End()) {
				st.markVolatile(obj)
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				mark(l)
			}
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(n.X)
			}
		}
		return true
	})
}

// ---------------------------------------------------------------------
// Edges and refinement

func (ip *interp) applyEdge(e cfg.Edge, st *state) {
	switch e.Kind {
	case cfg.CondTrue:
		ip.refine(st, e.Cond, true)
	case cfg.CondFalse:
		ip.refine(st, e.Cond, false)
	case cfg.Case:
		ip.refineCase(st, e.Tag, e.Vals)
	case cfg.RangeBody:
		ip.bindRange(st, e.Rng)
	}
}

// refineCase narrows a switch tag to the union of its case values.
func (ip *interp) refineCase(st *state, tag ast.Expr, vals []ast.Expr) {
	cellE, ok := ip.refinableCell(tag)
	if !ok {
		return
	}
	u := bottomIv
	for _, v := range vals {
		u = u.Join(ip.evalQuiet(v, st))
	}
	ip.meetCell(st, cellE, u)
}

// bindRange seeds the loop variables when entering a range body: the key
// of a slice/array/string/int range is [0, len−1], and the container is
// known non-empty.
func (ip *interp) bindRange(st *state, rng *ast.RangeStmt) {
	t := ip.typeOf(rng.X)
	var keyIv Interval
	switch {
	case isInteger(t): // range over int (Go 1.22)
		n := ip.evalQuiet(rng.X, st)
		keyIv = Interval{0, math.Max(n.Hi-1, 0)}
		// The body runs at all only when the bound is positive.
		if cellE, ok := ip.refinableCell(rng.X); ok {
			ip.meetCell(st, cellE, Interval{1, inf})
		}
	default:
		length, _ := ip.lenOfValue(rng.X, st)
		keyIv = Interval{0, math.Max(length.Hi-1, 0)}
		if id, ok := unparen(rng.X).(*ast.Ident); ok {
			if obj, ok := ip.localVar(id); ok && hasLenCell(obj.Type()) {
				ip.meetCell(st, lenCell{obj}, Interval{1, inf})
			}
		}
	}
	if _, isMap := t.Underlying().(*types.Map); isMap {
		keyIv = top // map keys are values, not indices
	}
	if rng.Key != nil {
		if id, ok := rng.Key.(*ast.Ident); ok && id.Name != "_" {
			if obj := ip.objOf(id); obj != nil && isNumeric(obj.Type()) {
				st.set(obj, keyIv.Meet(topOf(obj.Type())))
			}
		}
	}
	if rng.Value != nil {
		if id, ok := rng.Value.(*ast.Ident); ok && id.Name != "_" {
			if obj := ip.objOf(id); obj != nil && isNumeric(obj.Type()) {
				st.set(obj, topOf(obj.Type()))
			}
		}
	}
}

// refinableCell maps an expression to the state cell a comparison can
// narrow: a tracked local identifier, or len/cap of one.
func (ip *interp) refinableCell(e ast.Expr) (any, bool) {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		if obj, ok := ip.localVar(e); ok && isNumeric(obj.Type()) {
			return obj, true
		}
	case *ast.CallExpr:
		if ip.calleeOf(e) == "len" && len(e.Args) == 1 {
			if id, ok := unparen(e.Args[0]).(*ast.Ident); ok {
				if obj, ok := ip.localVar(id); ok && hasLenCell(obj.Type()) {
					return lenCell{obj}, true
				}
			}
		}
	}
	return nil, false
}

func (ip *interp) meetCell(st *state, c any, iv Interval) {
	if st.isVolatile(cellObj(c)) {
		return
	}
	met := st.get(c).Meet(iv)
	if met.IsBottom() {
		st.reach = false
		return
	}
	st.set(c, met)
}

func cellObj(c any) types.Object {
	switch c := c.(type) {
	case lenCell:
		return c.obj
	case types.Object:
		return c
	}
	return nil
}

// refine narrows st with the knowledge that cond evaluated to truth.
func (ip *interp) refine(st *state, cond ast.Expr, truth bool) {
	if !st.reach {
		return
	}
	switch cond := unparen(cond).(type) {
	case *ast.UnaryExpr:
		if cond.Op == token.NOT {
			ip.refine(st, cond.X, !truth)
		}
	case *ast.BinaryExpr:
		switch cond.Op {
		case token.LAND:
			if truth {
				ip.refine(st, cond.X, true)
				ip.refine(st, cond.Y, true)
			}
		case token.LOR:
			if !truth {
				ip.refine(st, cond.X, false)
				ip.refine(st, cond.Y, false)
			}
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			op := cond.Op
			if !truth {
				op = negateCmp(op)
			}
			ip.refineCmp(st, cond.X, op, cond.Y)
		}
	}
}

func negateCmp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GEQ
	case token.LEQ:
		return token.GTR
	case token.GTR:
		return token.LEQ
	case token.GEQ:
		return token.LSS
	case token.EQL:
		return token.NEQ
	case token.NEQ:
		return token.EQL
	}
	return op
}

// refineCmp applies x op y to both operands' cells.
func (ip *interp) refineCmp(st *state, x ast.Expr, op token.Token, y ast.Expr) {
	if !isNumeric(ip.typeOf(x)) && !isNumeric(ip.typeOf(y)) {
		// len() comparisons have numeric operands; everything else
		// (pointers, strings, bools) carries no interval knowledge.
		if _, ok := ip.refinableCell(x); !ok {
			if _, ok := ip.refinableCell(y); !ok {
				return
			}
		}
	}
	yiv := ip.evalQuiet(y, st)
	xiv := ip.evalQuiet(x, st)
	if cellX, ok := ip.refinableCell(x); ok {
		if op == token.NEQ {
			ip.shaveCell(st, cellX, yiv, intCell(ip, x))
		} else {
			ip.meetCell(st, cellX, boundFor(op, yiv, intCell(ip, x)))
		}
	}
	if cellY, ok := ip.refinableCell(y); ok {
		if op == token.NEQ {
			ip.shaveCell(st, cellY, xiv, intCell(ip, y))
		} else {
			ip.meetCell(st, cellY, boundFor(flipCmp(op), xiv, intCell(ip, y)))
		}
	}
}

func intCell(ip *interp, e ast.Expr) bool {
	if _, ok := ip.refinableCell(e); ok {
		if call, isCall := unparen(e).(*ast.CallExpr); isCall && ip.calleeOf(call) == "len" {
			return true
		}
	}
	return isInteger(ip.typeOf(e))
}

func flipCmp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GTR
	case token.LEQ:
		return token.GEQ
	case token.GTR:
		return token.LSS
	case token.GEQ:
		return token.LEQ
	}
	return op // ==, != are symmetric
}

// boundFor turns "value op other" into the interval the value must lie
// in. Strict inequalities step by 1 for integers and by one ulp for
// floats (the closed-interval representation cannot express open
// bounds).
func boundFor(op token.Token, other Interval, integer bool) Interval {
	if other.IsBottom() {
		return top
	}
	switch op {
	case token.LSS:
		return Interval{-inf, strictBelow(other.Hi, integer)}
	case token.LEQ:
		return Interval{-inf, other.Hi}
	case token.GTR:
		return Interval{strictAbove(other.Lo, integer), inf}
	case token.GEQ:
		return Interval{other.Lo, inf}
	case token.EQL:
		return other
	case token.NEQ:
		// Handled by shaveCell, which sees the value's current interval.
		return top
	}
	return top
}

// shaveCell applies a disequality "cell != other". An interval can only
// express it when other is a single point sitting exactly on one of the
// cell's endpoints — the canonical `if len(xs) == 0 { return }` guard,
// whose false branch turns [0, n] into [1, n], or `if nn == 0 { return }`
// turning [0, +inf] into (0, +inf]. Points interior to the interval are
// unexpressible and ignored (no relational domain).
func (ip *interp) shaveCell(st *state, c any, other Interval, integer bool) {
	if other.IsBottom() || other.Lo != other.Hi || math.IsInf(other.Lo, 0) {
		return
	}
	p := other.Lo
	cur := st.get(c)
	if cur.IsBottom() {
		return
	}
	out := cur
	if cur.Lo == p {
		out.Lo = strictAbove(p, integer)
	}
	if cur.Hi == p {
		out.Hi = strictBelow(p, integer)
	}
	if out.IsBottom() {
		st.reach = false
		return
	}
	ip.meetCell(st, c, out)
}

func strictBelow(v float64, integer bool) float64 {
	if math.IsInf(v, 0) {
		return v
	}
	if integer {
		return v - 1
	}
	return math.Nextafter(v, -inf)
}

func strictAbove(v float64, integer bool) float64 {
	if math.IsInf(v, 0) {
		return v
	}
	if integer {
		return v + 1
	}
	return math.Nextafter(v, inf)
}

// ---------------------------------------------------------------------
// Hooks

func (ip *interp) fireCall(call *ast.CallExpr, callee string, args []Interval) {
	if !ip.reporting || callee == "" {
		return
	}
	for _, h := range ip.hooks {
		if h.call != nil {
			h.call(call, callee, args)
		}
	}
}

func (ip *interp) fireDiv(pos token.Pos, divisor Interval, integer bool) {
	if !ip.reporting {
		return
	}
	for _, h := range ip.hooks {
		if h.div != nil {
			h.div(pos, divisor, integer)
		}
	}
}

func (ip *interp) fireIndex(pos token.Pos, idx, length Interval) {
	if !ip.reporting {
		return
	}
	for _, h := range ip.hooks {
		if h.index != nil {
			h.index(pos, idx, length)
		}
	}
}

// fireProbCmp reports the non-random operand of a comparison against
// rand.Float64() to the probability-range hooks.
func (ip *interp) fireProbCmp(e *ast.BinaryExpr, x, y Interval, st *state) {
	if !ip.reporting {
		return
	}
	probSide := ast.Expr(nil)
	var probIv Interval
	if ip.isRandFloat64(e.X) {
		probSide, probIv = e.Y, y
	} else if ip.isRandFloat64(e.Y) {
		probSide, probIv = e.X, x
	}
	if probSide == nil {
		return
	}
	for _, h := range ip.hooks {
		if h.probCmp != nil {
			h.probCmp(probSide.Pos(), probIv)
		}
	}
}

func (ip *interp) isRandFloat64(e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch ip.calleeOf(call) {
	case "(math/rand.Rand).Float64", "math/rand.Float64",
		"(math/rand/v2.Rand).Float64", "math/rand/v2.Float64":
		return true
	}
	return false
}

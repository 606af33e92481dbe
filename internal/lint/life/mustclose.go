package life

// mustclose: path-sensitive must-release analysis. An acquire-table call
// (os.Open, vid.OpenRawStore, time.NewTicker, context.WithCancel, ...)
// creates an obligation on its result; the obligation must be discharged
// on every CFG path that reaches a function exit. Discharges:
//
//   - a release method on the resource (f.Close(), t.Stop(),
//     resp.Body.Close()) — reached directly or via defer, which covers
//     panic exits;
//   - calling the value itself, for CallRelease resources (cancel());
//   - ownership transfer: the resource is returned, stored into a struct
//     literal or heap location, sent on a channel, captured by a
//     goroutine or closure, appended to a slice, or passed to a callee
//     whose summary (or the Owners table) says it takes ownership.
//
// Error-branch refinement keeps the analysis honest about Go's acquire
// idiom: on the `err != nil` edge after `f, err := os.Open(p)` the
// obligation dies (a failed acquire returns no resource), and likewise on
// any `f == nil` edge. Exits reached by panic/os.Exit are not charged —
// only deferred releases run there, and defers are already credited.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"verro/internal/lint"
	"verro/internal/lint/cfg"
)

func runMustClose(p *pass) {
	for _, f := range p.pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				analyzeMustClose(p, fd.Body)
			}
		}
		// Function literals are their own obligation scopes: a resource
		// acquired inside a closure must be released inside it (or
		// transferred out of it).
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				analyzeMustClose(p, lit.Body)
			}
			return true
		})
	}
}

// oblig is one live obligation: the acquire site, the rule that created
// it, the error result governing its feasibility, and the set of local
// variables currently holding the resource.
type oblig struct {
	kind        string
	source      string
	release     []string
	callRelease bool
	errObj      types.Object
	vars        map[types.Object]bool
}

func (o *oblig) clone() *oblig {
	vars := make(map[types.Object]bool, len(o.vars))
	for k, v := range o.vars {
		vars[k] = v
	}
	c := *o
	c.vars = vars
	return &c
}

// closeState is the abstract state at one program point: the set of
// may-live obligations keyed by acquire position.
type closeState struct {
	reach bool
	obs   map[token.Pos]*oblig
}

func (s closeState) clone() closeState {
	obs := make(map[token.Pos]*oblig, len(s.obs))
	for k, v := range s.obs {
		obs[k] = v.clone()
	}
	return closeState{reach: s.reach, obs: obs}
}

// joinClose unions the obligations: live on any path means live.
func joinClose(a, b closeState) closeState {
	if !a.reach {
		return b.clone()
	}
	out := a.clone()
	for pos, ob := range b.obs {
		if have, ok := out.obs[pos]; ok {
			for v := range ob.vars {
				have.vars[v] = true
			}
		} else {
			out.obs[pos] = ob.clone()
		}
	}
	return out
}

func eqClose(a, b closeState) bool {
	if a.reach != b.reach || len(a.obs) != len(b.obs) {
		return false
	}
	for pos, ob := range a.obs {
		other, ok := b.obs[pos]
		if !ok || len(ob.vars) != len(other.vars) {
			return false
		}
		for v := range ob.vars {
			if !other.vars[v] {
				return false
			}
		}
	}
	return true
}

// closer drives one body's analysis.
type closer struct {
	p        *pass
	report   bool
	reported map[token.Pos]bool
}

func analyzeMustClose(p *pass, body *ast.BlockStmt) {
	g := cfg.Build(body)
	n := len(g.Blocks)
	in := make([]closeState, n)
	in[g.Entry.ID] = closeState{reach: true, obs: map[token.Pos]*oblig{}}
	m := &closer{p: p, reported: map[token.Pos]bool{}}

	queued := make([]bool, n)
	wl := []int{g.Entry.ID}
	queued[g.Entry.ID] = true
	steps, maxSteps := 0, 64*n+256
	for len(wl) > 0 {
		if steps++; steps > maxSteps {
			break // safety net; the finite obligation lattice converges
		}
		id := wl[0]
		wl = wl[1:]
		queued[id] = false
		if !in[id].reach {
			continue
		}
		st := in[id].clone()
		m.execBlock(g.Blocks[id], &st)
		for _, ed := range g.Blocks[id].Succs {
			s2 := st.clone()
			m.applyEdge(ed, &s2)
			tgt := ed.To.ID
			merged := joinClose(in[tgt], s2)
			if !eqClose(merged, in[tgt]) {
				in[tgt] = merged
				if !queued[tgt] {
					wl = append(wl, tgt)
					queued[tgt] = true
				}
			}
		}
	}

	// Reporting sweep in block order: discarded acquires fire where they
	// happen, leaks fire at the acquire site of obligations still live at
	// a non-panic exit.
	m.report = true
	for id := 0; id < n; id++ {
		if !in[id].reach {
			continue
		}
		b := g.Blocks[id]
		st := in[id].clone()
		m.execBlock(b, &st)
		if len(b.Succs) > 0 || panicExit(b) {
			continue
		}
		var live []token.Pos
		for pos := range st.obs {
			live = append(live, pos)
		}
		sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
		for _, pos := range live {
			if m.reported[pos] {
				continue
			}
			m.reported[pos] = true
			ob := st.obs[pos]
			if ob.callRelease {
				m.p.Reportf(pos, "%s from %s is not called on every path; defer it at the acquire site", ob.kind, ob.source)
			} else {
				m.p.Reportf(pos, "%s from %s is not released on every path; add a defer or close it before each return", ob.kind, ob.source)
			}
		}
	}
}

// panicExit reports whether the block ends in a no-return call: defers
// (already credited) are the only releases that run there.
func panicExit(b *cfg.Block) bool {
	if len(b.Stmts) == 0 {
		return false
	}
	es, ok := b.Stmts[len(b.Stmts)-1].(*ast.ExprStmt)
	return ok && cfg.IsNoReturnCall(es.X)
}

func (m *closer) execBlock(b *cfg.Block, st *closeState) {
	for _, s := range b.Stmts {
		m.stmt(s, st)
	}
	if b.Ret != nil {
		for _, res := range b.Ret.Results {
			m.dischargeIdents(res, st)
		}
	}
}

func (m *closer) stmt(s ast.Stmt, st *closeState) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
				if rule, name, ok := m.acquireRule(call); ok {
					m.transfers(s.Rhs[0], st)
					m.bind(s.Lhs, call, rule, name, st)
					return
				}
			}
		}
		for _, r := range s.Rhs {
			m.transfers(r, st)
		}
		if len(s.Lhs) == len(s.Rhs) {
			for i := range s.Lhs {
				m.assignOne(s.Lhs[i], s.Rhs[i], st)
			}
		}

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 1 {
					continue
				}
				call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr)
				if !ok {
					continue
				}
				if rule, name, ok := m.acquireRule(call); ok {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, n := range vs.Names {
						lhs[i] = n
					}
					m.transfers(vs.Values[0], st)
					m.bind(lhs, call, rule, name, st)
				} else {
					m.transfers(vs.Values[0], st)
				}
			}
		}

	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if m.releaseCall(call, st) {
				return
			}
			if rule, name, ok := m.acquireRule(call); ok && m.report {
				m.p.Reportf(call.Pos(), "%s from %s is discarded; it can never be released", rule.Kind, lint.ShortName(name))
			}
		}
		m.transfers(s.X, st)

	case *ast.DeferStmt:
		if m.releaseCall(s.Call, st) {
			return
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			// Releases inside a deferred closure run on every later exit.
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok {
					m.releaseCall(c, st)
				}
				return true
			})
			return
		}
		m.transfers(s.Call, st)

	case *ast.GoStmt:
		// The goroutine takes ownership of everything it references.
		m.dischargeIdents(s.Call, st)

	case *ast.SendStmt:
		m.dischargeIdents(s.Value, st)
		m.transfers(s.Chan, st)

	default:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				m.transfers(e, st)
				return false
			}
			return true
		})
	}
}

// bind installs a fresh obligation for an acquire's result.
func (m *closer) bind(lhs []ast.Expr, call *ast.CallExpr, rule Resource, name string, st *closeState) {
	if rule.Result >= len(lhs) {
		return
	}
	var errObj types.Object
	if len(lhs) > 1 {
		if id, ok := ast.Unparen(lhs[len(lhs)-1]).(*ast.Ident); ok && id.Name != "_" {
			if obj := m.p.pkg.Info.ObjectOf(id); obj != nil && lint.IsError(obj.Type()) {
				errObj = obj
			}
		}
	}
	switch r := ast.Unparen(lhs[rule.Result]).(type) {
	case *ast.Ident:
		if r.Name == "_" {
			if m.report {
				m.p.Reportf(call.Pos(), "%s from %s is discarded; it can never be released", rule.Kind, lint.ShortName(name))
			}
			return
		}
		obj := m.p.pkg.Info.ObjectOf(r)
		if obj == nil {
			return
		}
		m.rebind(obj, call.Pos(), st)
		st.obs[call.Pos()] = &oblig{
			kind:        rule.Kind,
			source:      lint.ShortName(name),
			release:     rule.Release,
			callRelease: rule.CallRelease,
			errObj:      errObj,
			vars:        map[types.Object]bool{obj: true},
		}
	default:
		// Stored straight into a field/index: immediate ownership transfer.
	}
}

// rebind removes obj from every obligation's alias set before it is
// overwritten; an obligation that loses its last alias is unreleasable
// and reported as overwritten.
func (m *closer) rebind(obj types.Object, at token.Pos, st *closeState) {
	for pos, ob := range st.obs {
		if !ob.vars[obj] {
			continue
		}
		delete(ob.vars, obj)
		if len(ob.vars) == 0 {
			delete(st.obs, pos)
			if m.report && !m.reported[pos] {
				m.reported[pos] = true
				m.p.Reportf(pos, "%s from %s is overwritten while still unreleased", ob.kind, ob.source)
			}
		}
	}
}

// assignOne handles aliasing (`g := f`) and heap stores (`s.f = f`).
func (m *closer) assignOne(lhs, rhs ast.Expr, st *closeState) {
	rhsObj := identObj(m.p.pkg.Info, rhs)
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		lobj := m.p.pkg.Info.ObjectOf(l)
		if lobj == nil {
			return
		}
		if lobj.Pkg() != nil && lobj.Parent() == lobj.Pkg().Scope() {
			// Store to a package-level variable: ownership leaves.
			m.dischargeIdents(rhs, st)
			return
		}
		if rhsObj != nil {
			if tracked(st, rhsObj) {
				m.rebind(lobj, lhs.Pos(), st)
				for _, ob := range st.obs {
					if ob.vars[rhsObj] {
						ob.vars[lobj] = true
					}
				}
				return
			}
		}
		m.rebind(lobj, lhs.Pos(), st)
	default:
		// Selector/index/star store: the resource escapes to the heap.
		m.dischargeIdents(rhs, st)
	}
}

// transfers discharges obligations whose resource escapes through the
// expression: composite literals, closures, channel-free heap shapes, and
// arguments passed to owning callees.
func (m *closer) transfers(e ast.Expr, st *closeState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				m.dischargeIdents(el, st)
			}
			return false
		case *ast.FuncLit:
			// Captured by a closure: ownership moves into it.
			m.dischargeIdents(x.Body, st)
			return false
		case *ast.CallExpr:
			// A release reached through an expression context still
			// releases: `if err := f.Close(); err != nil` is the idiomatic
			// checked close.
			m.releaseCall(x, st)
			m.argTransfers(x, st)
			return true
		}
		return true
	})
}

// argTransfers discharges tracked arguments passed to callees that take
// ownership (append, the Owners table, or a converged Owns summary).
func (m *closer) argTransfers(call *ast.CallExpr, st *closeState) {
	info := m.p.pkg.Info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && info.Uses[id] == types.Universe.Lookup("append") {
		for _, a := range call.Args[1:] {
			m.dischargeIdents(a, st)
		}
		return
	}
	name := calleeName(info, call)
	if name == "" {
		return
	}
	owns := append([]int(nil), m.p.cfg.Owners[name]...)
	if s := m.p.look(name); s != nil {
		owns = append(owns, s.Owns...)
	}
	for _, i := range owns {
		if i < len(call.Args) {
			m.dischargeIdents(call.Args[i], st)
		}
	}
}

// releaseCall discharges an obligation when the call is its release: a
// release method rooted at an aliased variable, or (for CallRelease
// resources) calling the variable itself.
func (m *closer) releaseCall(call *ast.CallExpr, st *closeState) bool {
	info := m.p.pkg.Info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := info.ObjectOf(id); obj != nil {
			for pos, ob := range st.obs {
				if ob.callRelease && ob.vars[obj] {
					delete(st.obs, pos)
					return true
				}
			}
		}
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	base := baseIdent(sel.X)
	if base == nil {
		return false
	}
	obj := info.ObjectOf(base)
	if obj == nil {
		return false
	}
	released := false
	for pos, ob := range st.obs {
		if !ob.vars[obj] {
			continue
		}
		for _, r := range ob.release {
			if r == sel.Sel.Name {
				delete(st.obs, pos)
				released = true
				break
			}
		}
	}
	return released
}

// dischargeIdents removes every obligation aliased by an identifier
// appearing in the subtree — the blunt instrument behind "sent away,
// captured, stored, returned".
func (m *closer) dischargeIdents(n ast.Node, st *closeState) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		id, ok := c.(*ast.Ident)
		if !ok {
			return true
		}
		obj := m.p.pkg.Info.ObjectOf(id)
		if obj == nil {
			return true
		}
		for pos, ob := range st.obs {
			if ob.vars[obj] {
				delete(st.obs, pos)
			}
		}
		return true
	})
}

// acquireRule matches a call against the acquire table.
func (m *closer) acquireRule(call *ast.CallExpr) (Resource, string, bool) {
	name := calleeName(m.p.pkg.Info, call)
	if name == "" {
		return Resource{}, "", false
	}
	rule, ok := m.p.cfg.Resources[name]
	return rule, name, ok
}

// applyEdge refines obligations along conditional edges: a non-nil error
// or a nil resource kills the acquire's obligation on that path.
func (m *closer) applyEdge(e cfg.Edge, st *closeState) {
	if e.Kind != cfg.CondTrue && e.Kind != cfg.CondFalse {
		return
	}
	bin, ok := ast.Unparen(e.Cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return
	}
	var id *ast.Ident
	switch {
	case isNilIdent(bin.Y):
		id, _ = ast.Unparen(bin.X).(*ast.Ident)
	case isNilIdent(bin.X):
		id, _ = ast.Unparen(bin.Y).(*ast.Ident)
	}
	if id == nil {
		return
	}
	obj := m.p.pkg.Info.ObjectOf(id)
	if obj == nil {
		return
	}
	truth := e.Kind == cfg.CondTrue
	varIsNil := (bin.Op == token.EQL) == truth
	for pos, ob := range st.obs {
		if varIsNil && ob.vars[obj] {
			delete(st.obs, pos) // the resource is nil here: nothing to release
		}
		if !varIsNil && ob.errObj != nil && ob.errObj == obj {
			delete(st.obs, pos) // err != nil: the acquire failed
		}
	}
}

func tracked(st *closeState, obj types.Object) bool {
	for _, ob := range st.obs {
		if ob.vars[obj] {
			return true
		}
	}
	return false
}

func identObj(info *types.Info, e ast.Expr) types.Object {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return info.ObjectOf(id)
	}
	return nil
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

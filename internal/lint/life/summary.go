package life

// Per-function lifecycle summaries and their bottom-up fixpoint. A
// Summary is the caller-visible lifecycle behavior of one function: may
// it never return, and which parameters does it take ownership of. The
// facts are deliberately coarse — two small fields — because they exist
// to answer the analyzers' cross-call questions, not to model the heap:
// goleak asks Diverges of a `go` statement's callee, mustclose asks Owns
// when a live resource is passed away.
//
// Both facts grow monotonically (false→true, sets grow), so iterating the
// summarizer in sorted name order (lint.Fixpoint) converges well within
// its round bound.

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"

	"verro/internal/lint"
	"verro/internal/lint/cfg"
)

// Summary is the caller-visible lifecycle behavior of one function.
type Summary struct {
	// Diverges: the function contains an unconditional loop (or empty
	// select) with no reachable exit, or unconditionally calls one.
	Diverges bool
	// Owns lists parameter indices the function takes ownership of:
	// it releases them, stores them, sends them, or returns them.
	Owns []int
}

// equalSummary reports whether a fixpoint round left a summary
// unchanged; old is nil before the function's first round.
func equalSummary(old, cur *Summary) bool {
	return old != nil && old.Diverges == cur.Diverges && slices.Equal(old.Owns, cur.Owns)
}

// Summaries converges the lifecycle summaries of every function the
// program declares. Summaries are computed for every package — not just
// service ones — so service code calling library code sees its facts.
func Summaries(prog *lint.Program, cfg *Config) map[string]*Summary {
	sums := make(map[string]*Summary, len(prog.Funcs))
	look := func(n string) *Summary { return sums[n] }
	lint.Fixpoint(prog, sums, func(fn *lint.Func) *Summary {
		s, _ := summarizeBody(fn.Pkg, cfg, look, fn.Decl.Body, paramIndex(fn.Pkg, fn.Decl.Type))
		return s
	}, equalSummary)
	return sums
}

// paramIndex maps the function's parameter objects to their positional
// indices (receivers are not parameters here; release methods discharge
// receiver state directly at call sites).
func paramIndex(pkg *lint.Package, ft *ast.FuncType) map[types.Object]int {
	m := map[types.Object]int{}
	if ft.Params == nil {
		return m
	}
	i := 0
	for _, f := range ft.Params.List {
		if len(f.Names) == 0 {
			i++
			continue
		}
		for _, n := range f.Names {
			if obj := pkg.Info.ObjectOf(n); obj != nil {
				m[obj] = i
			}
			i++
		}
	}
	return m
}

// summarizeBody computes one body's summary. The second result is the
// position of the first unconditional loop with no exit, for goleak's
// diagnostics on function literals; it is token.NoPos when the body only
// diverges through callees.
func summarizeBody(pkg *lint.Package, cfg *Config, look func(string) *Summary, body *ast.BlockStmt, params map[types.Object]int) (*Summary, token.Pos) {
	w := &sumWalker{
		pkg:    pkg,
		cfg:    cfg,
		look:   look,
		params: params,
		owns:   map[int]bool{},
		sum:    &Summary{},
	}
	w.scan(body, false)
	var owns []int
	for i := range w.owns {
		owns = append(owns, i)
	}
	sort.Ints(owns)
	w.sum.Owns = owns
	return w.sum, w.loopPos
}

type sumWalker struct {
	pkg    *lint.Package
	cfg    *Config
	look   func(string) *Summary
	params map[types.Object]int

	sum     *Summary
	owns    map[int]bool
	loopPos token.Pos
}

func (w *sumWalker) noteLoop(pos token.Pos) {
	if !w.loopPos.IsValid() {
		w.loopPos = pos
	}
}

// markOwns records ownership transfer of any parameter identifier
// appearing in e.
func (w *sumWalker) markOwns(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := w.pkg.Info.ObjectOf(id); obj != nil {
				if i, ok := w.params[obj]; ok {
					w.owns[i] = true
				}
			}
		}
		return true
	})
}

// scan walks a subtree. With ownsOnly the walk records only ownership
// transfer (the subtree runs on another goroutine or in an uninvoked
// closure, so its loops are not this function's behavior).
func (w *sumWalker) scan(n ast.Node, ownsOnly bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		switch x := c.(type) {
		case *ast.GoStmt:
			// The spawned body is not caller behavior; captured/passed
			// parameters move to the goroutine.
			w.markOwns(x.Call.Fun)
			for _, a := range x.Call.Args {
				w.markOwns(a)
			}
			if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				w.scan(lit.Body, true)
			}
			return false

		case *ast.DeferStmt:
			// Deferred work runs on this goroutine at exit.
			if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				w.scan(lit.Body, ownsOnly)
			} else {
				w.call(x.Call, ownsOnly)
			}
			for _, a := range x.Call.Args {
				w.scan(a, ownsOnly)
			}
			return false

		case *ast.FuncLit:
			// A bare literal (not deferred, not go'd, not immediately
			// invoked) only captures; its body runs who-knows-where.
			w.scan(x.Body, true)
			return false

		case *ast.CallExpr:
			if lit, ok := ast.Unparen(x.Fun).(*ast.FuncLit); ok {
				// Immediately-invoked literal runs inline.
				w.scan(lit.Body, ownsOnly)
			} else {
				w.call(x, ownsOnly)
				// Chained calls hide in the callee chain (a().b()).
				if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
					w.scan(sel.X, ownsOnly)
				}
			}
			for _, a := range x.Args {
				w.scan(a, ownsOnly)
			}
			return false

		case *ast.SelectStmt:
			if !ownsOnly && len(x.Body.List) == 0 {
				w.sum.Diverges = true
				w.noteLoop(x.Pos())
			}
			// Scan the comm operands and the clause bodies.
			for _, cc := range x.Body.List {
				cc := cc.(*ast.CommClause)
				w.scanComm(cc.Comm, ownsOnly)
				for _, s := range cc.Body {
					w.scan(s, ownsOnly)
				}
			}
			return false

		case *ast.SendStmt:
			w.markOwns(x.Value)
			w.scan(x.Chan, ownsOnly)
			w.scan(x.Value, ownsOnly)
			return false

		case *ast.ForStmt:
			if x.Cond == nil && !ownsOnly {
				if !loopExits(x.Body, nil) {
					w.sum.Diverges = true
					w.noteLoop(x.Pos())
				}
			}
			return true

		case *ast.LabeledStmt:
			if loop, ok := x.Stmt.(*ast.ForStmt); ok && loop.Cond == nil && !ownsOnly {
				if !loopExits(loop.Body, x.Label) {
					w.sum.Diverges = true
					w.noteLoop(loop.Pos())
				}
				// The ForStmt case will re-test without the label and may
				// wrongly conclude no-exit on `L: for { break L }`; scan
				// children here and skip the generic descent.
				w.scan(loop.Body, ownsOnly)
				if loop.Init != nil {
					w.scan(loop.Init, ownsOnly)
				}
				if loop.Post != nil {
					w.scan(loop.Post, ownsOnly)
				}
				return false
			}
			return true

		case *ast.CompositeLit:
			for _, el := range x.Elts {
				w.markOwns(el)
			}
			return true

		case *ast.AssignStmt:
			// A store through a selector/index (heap-shaped LHS) or to a
			// package-level variable transfers ownership of parameters on
			// the RHS.
			heap := false
			for _, l := range x.Lhs {
				switch lhs := ast.Unparen(l).(type) {
				case *ast.Ident:
					if obj := w.pkg.Info.ObjectOf(lhs); obj != nil && obj.Pkg() != nil &&
						obj.Parent() == obj.Pkg().Scope() {
						heap = true
					}
				default:
					heap = true
				}
			}
			if heap {
				for _, r := range x.Rhs {
					w.markOwns(r)
				}
			}
			return true

		case *ast.ReturnStmt:
			for _, r := range x.Results {
				w.markOwns(r)
			}
			return true
		}
		return true
	})
}

// scanComm scans a select comm statement's operands.
func (w *sumWalker) scanComm(comm ast.Stmt, ownsOnly bool) {
	switch s := comm.(type) {
	case nil:
	case *ast.SendStmt:
		w.markOwns(s.Value)
		w.scan(s.Chan, ownsOnly)
		w.scan(s.Value, ownsOnly)
	case *ast.ExprStmt:
		if u, ok := ast.Unparen(s.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			w.scan(u.X, ownsOnly)
		}
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			if u, ok := ast.Unparen(r).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				w.scan(u.X, ownsOnly)
			}
		}
	}
}

// call folds one resolved call's behavior into the summary.
func (w *sumWalker) call(call *ast.CallExpr, ownsOnly bool) {
	info := w.pkg.Info
	name := calleeName(info, call)
	if !ownsOnly {
		if s := w.look(name); s != nil && s.Diverges {
			w.sum.Diverges = true
		}
	}

	// Ownership: parameters passed to an owning callee or through append.
	var calleeOwns []int
	if name != "" {
		calleeOwns = w.cfg.Owners[name]
		if s := w.look(name); s != nil {
			calleeOwns = append(calleeOwns, s.Owns...)
		}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && info.Uses[id] == types.Universe.Lookup("append") {
		for _, a := range call.Args[1:] {
			w.markOwns(a)
		}
	}
	for i, a := range call.Args {
		aid, ok := ast.Unparen(a).(*ast.Ident)
		if !ok {
			continue
		}
		obj := info.ObjectOf(aid)
		if obj == nil {
			continue
		}
		pi, isParam := w.params[obj]
		if !isParam {
			continue
		}
		for _, oi := range calleeOwns {
			if oi == i {
				w.owns[pi] = true
			}
		}
	}

	// Release method invoked on a parameter (p.Close(), resp.Body.Close()).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isReleaseName(sel.Sel.Name) {
		if base := baseIdent(sel.X); base != nil {
			if obj := info.ObjectOf(base); obj != nil {
				if pi, ok := w.params[obj]; ok {
					w.owns[pi] = true
				}
			}
		}
	}
	// A parameter that is itself called discharges CallRelease resources.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := info.ObjectOf(id); obj != nil {
			if pi, ok := w.params[obj]; ok {
				w.owns[pi] = true
			}
		}
	}
}

// isReleaseName reports whether a method name discharges a resource.
func isReleaseName(name string) bool {
	switch name {
	case "Close", "Stop", "Shutdown":
		return true
	}
	return false
}

// loopExits reports whether an unconditional loop's body can leave the
// loop: a return, a break reaching this loop, a goto, or a no-return
// call. The classic bug this catches is `for { select { case <-done:
// break } }` — that break exits the select, not the loop.
func loopExits(body *ast.BlockStmt, label *ast.Ident) bool {
	inner := map[string]bool{}
	var stmtExits func(s ast.Stmt, depth int) bool
	listExits := func(list []ast.Stmt, depth int) bool {
		for _, s := range list {
			if stmtExits(s, depth) {
				return true
			}
		}
		return false
	}
	stmtExits = func(s ast.Stmt, depth int) bool {
		switch s := s.(type) {
		case *ast.ReturnStmt:
			return true
		case *ast.BranchStmt:
			switch s.Tok {
			case token.BREAK:
				if s.Label == nil {
					return depth == 0
				}
				if label != nil && s.Label.Name == label.Name {
					return true
				}
				// A labeled break whose target is not nested inside this
				// loop exits through it.
				return !inner[s.Label.Name]
			case token.GOTO:
				return true // target may be outside; optimistic
			}
			return false
		case *ast.ExprStmt:
			return cfg.IsNoReturnCall(s.X)
		case *ast.BlockStmt:
			return listExits(s.List, depth)
		case *ast.IfStmt:
			if listExits(s.Body.List, depth) {
				return true
			}
			if s.Else != nil {
				return stmtExits(s.Else, depth)
			}
			return false
		case *ast.ForStmt:
			return listExits(s.Body.List, depth+1)
		case *ast.RangeStmt:
			return listExits(s.Body.List, depth+1)
		case *ast.SwitchStmt:
			for _, cc := range s.Body.List {
				if listExits(cc.(*ast.CaseClause).Body, depth+1) {
					return true
				}
			}
			return false
		case *ast.TypeSwitchStmt:
			for _, cc := range s.Body.List {
				if listExits(cc.(*ast.CaseClause).Body, depth+1) {
					return true
				}
			}
			return false
		case *ast.SelectStmt:
			for _, cc := range s.Body.List {
				if listExits(cc.(*ast.CommClause).Body, depth+1) {
					return true
				}
			}
			return false
		case *ast.LabeledStmt:
			inner[s.Label.Name] = true
			return stmtExits(s.Stmt, depth)
		}
		return false
	}
	return listExits(body.List, 0)
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NewMapOrder builds the maporder analyzer: Go randomizes map iteration
// order per range statement, so a `range` over a map whose body does
// order-sensitive work — appending to a slice, accumulating floats (float
// addition does not commute at the bit level), or writing output — produces
// different bytes on every run and breaks bit-identical replay. The
// sanctioned pattern is a sorted-keys preamble; the analyzer recognizes the
// equivalent collect-then-sort idiom (append inside the loop, sort of the
// same slice after the loop — including after an enclosing loop) and stays
// quiet there.
func NewMapOrder() *Analyzer {
	a := &Analyzer{
		Name: "maporder",
		Doc:  "forbid order-sensitive work inside range-over-map; iterate sorted keys",
	}
	a.Run = func(pass *Pass) {
		for _, pkg := range pass.Pkgs {
			m := &mapOrder{pass: pass, pkg: pkg}
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
						m.checkBlock(fd.Body.List, nil)
					}
				}
			}
		}
	}
	return a
}

// mapOrder walks one package's function bodies.
type mapOrder struct {
	pass *Pass
	pkg  *Package
}

// checkBlock walks the statements of one block. follow carries the
// statements that execute after the block — the continuation — so a sort
// following an enclosing loop still counts as the sorted-after idiom for an
// append nested inside it.
func (m *mapOrder) checkBlock(stmts []ast.Stmt, follow []ast.Stmt) {
	for i, stmt := range stmts {
		rest := make([]ast.Stmt, 0, len(stmts)-i-1+len(follow))
		rest = append(rest, stmts[i+1:]...)
		rest = append(rest, follow...)
		m.checkStmt(stmt, rest)
	}
}

func (m *mapOrder) checkStmt(stmt ast.Stmt, follow []ast.Stmt) {
	switch s := stmt.(type) {
	case *ast.LabeledStmt:
		m.checkStmt(s.Stmt, follow)
	case *ast.RangeStmt:
		if m.isMapRange(s) {
			m.checkMapRange(s, follow)
		} else {
			m.checkBlock(s.Body.List, follow)
		}
	case *ast.ForStmt:
		m.checkBlock(s.Body.List, follow)
	case *ast.IfStmt:
		m.checkBlock(s.Body.List, follow)
		if s.Else != nil {
			m.checkStmt(s.Else, follow)
		}
	case *ast.BlockStmt:
		m.checkBlock(s.List, follow)
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				m.checkBlock(cc.Body, follow)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				m.checkBlock(cc.Body, follow)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				m.checkBlock(cc.Body, follow)
			}
		}
	default:
		// Function literals in expression position (go/defer/assignments/
		// calls) start a fresh continuation: nothing in the enclosing block
		// is known to run after the literal's body.
		ast.Inspect(stmt, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				m.checkBlock(lit.Body.List, nil)
				return false
			}
			return true
		})
	}
}

func (m *mapOrder) isMapRange(rng *ast.RangeStmt) bool {
	t := m.pkg.Info.TypeOf(rng.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkMapRange reports order-sensitive statements anywhere in the loop
// body (nested loops included — they still execute per map iteration).
// follow is the loop's continuation, consulted for the sorted-after idiom.
func (m *mapOrder) checkMapRange(rng *ast.RangeStmt, follow []ast.Stmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			m.checkAssign(s, follow)
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if path, name, ok := m.pkg.CalleeOf(call); ok && path == "fmt" && isPrintName(name) {
					m.pass.Reportf(call.Pos(),
						"fmt.%s inside range over map emits output in nondeterministic order; iterate sorted keys", name)
				}
			}
		}
		return true
	})
}

func (m *mapOrder) checkAssign(s *ast.AssignStmt, follow []ast.Stmt) {
	switch s.Tok {
	case token.ASSIGN, token.DEFINE:
		for i, rhs := range s.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !m.isBuiltinAppend(call) {
				continue
			}
			var target types.Object
			if i < len(s.Lhs) {
				if id, ok := s.Lhs[i].(*ast.Ident); ok {
					target = m.pkg.Info.ObjectOf(id)
				}
			}
			if target != nil && m.sortedAfter(target, follow) {
				continue
			}
			m.pass.Reportf(call.Pos(),
				"append inside range over map accumulates in nondeterministic order; iterate sorted keys or sort the result")
		}
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		if len(s.Lhs) == 1 && isFloat(m.pkg.Info.TypeOf(s.Lhs[0])) {
			m.pass.Reportf(s.Pos(),
				"floating-point accumulation inside range over map is order-dependent at the bit level; iterate sorted keys")
		}
	}
}

func (m *mapOrder) isBuiltinAppend(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, builtin := m.pkg.Info.Uses[id].(*types.Builtin)
	return builtin
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

func isPrintName(name string) bool {
	switch name {
	case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
		return true
	}
	return false
}

// sortedAfter reports whether a statement in the loop's continuation sorts
// the slice the loop appended to — sort.X(target, ...) or
// slices.SortX(target, ...).
func (m *mapOrder) sortedAfter(target types.Object, follow []ast.Stmt) bool {
	for _, stmt := range follow {
		es, ok := stmt.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		path, _, ok := m.pkg.CalleeOf(call)
		if !ok || (path != "sort" && path != "slices") {
			continue
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && m.pkg.Info.ObjectOf(id) == target {
				return true
			}
		}
	}
	return false
}

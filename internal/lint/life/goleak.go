package life

// goleak: every `go` statement in a service package must start a
// goroutine with a provable termination path. Evidence forms (DESIGN.md
// §2k): a bounded loop (explicit condition, or range — ranging a channel
// is close-signaled), or a return/break/no-return call syntactically
// reachable inside every unconditional loop. The select-on-ctx.Done idiom
// satisfies this through the return or break in the Done case; `for {
// select { case <-done: break } }` does not — that break exits the
// select, which is exactly the leak shape this analyzer exists to catch.
//
// Resolution is optimistic in the under-approximating direction the
// package documents: a `go` on a function value or an unknown (stdlib)
// callee is assumed to terminate; a named callee is judged by its
// converged Diverges summary, so divergence hiding two calls deep in
// another package still surfaces at the spawn site.

import (
	"go/ast"

	"verro/internal/lint"
)

func runGoLeak(p *pass) {
	for _, f := range p.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
				sum, loopPos := summarizeBody(p.pkg, p.cfg, p.look, lit.Body, nil)
				if sum.Diverges {
					pos := g.Pos()
					if loopPos.IsValid() {
						pos = loopPos
					}
					p.Reportf(pos, "goroutine never terminates: unconditional loop with no return, break, or close-signaled exit")
				}
				return true
			}
			name := calleeName(p.pkg.Info, g.Call)
			if s := p.look(name); s != nil && s.Diverges {
				p.Reportf(g.Pos(), "goroutine never terminates: %s contains an unconditional loop with no exit", lint.ShortName(name))
			}
			return true
		})
	}
}

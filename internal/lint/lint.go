// Package lint is VERRO's stdlib-only static-analysis framework. It exists
// because the project's load-bearing invariants — seeded runs are
// bit-identical at any worker count, tracing is observational-only, and the
// ε-indistinguishability math never silently degrades — are invisible to the
// compiler and were previously guarded only by equivalence tests that catch
// violations after they ship. The go command defines the packages: Load
// makes one `go list` call for its patterns, parses each matched package
// with go/parser and type-checks it with go/types, importing from the
// export data go list compiled, so there is no x/tools dependency. Run
// then executes a list of Analyzers over the loaded Program, producing
// position-tagged diagnostics.
//
// Suppression is explicit and grep-able: a `//lint:allow <analyzer>` comment
// (see directive.go for the grammar) silences one analyzer on its own line
// and on the line directly below, so every intentional exception carries an
// annotation at the call site.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant check. Run sees the whole loaded
// program, so a finding in one package can rest on a flow through
// another, and reports through Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:allow
	// directives. Lower-case, no spaces.
	Name string
	// Doc is the one-line invariant the analyzer encodes.
	Doc string
	// Run performs the check.
	Run func(*Pass)
}

// Diagnostic is one finding: where, which analyzer, and what.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Pass is one analyzer's run over the program.
type Pass struct {
	*Program
	Analyzer *Analyzer
	rep      *reporter
}

// reporter collects the diagnostics of one Run.
type reporter struct {
	seen  map[Diagnostic]bool
	diags []Diagnostic
}

// Reportf records a diagnostic at pos unless a //lint:allow directive for
// this analyzer covers the position's line, or the analyzer reported the
// same diagnostic before (fixpoints revisit statements).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allow.Allows(p.Analyzer.Name, position) {
		return
	}
	d := Diagnostic{Pos: position, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)}
	if !p.rep.seen[d] {
		p.rep.seen[d] = true
		p.rep.diags = append(p.rep.diags, d)
	}
}

// Run executes the analyzers over the program, in order, and returns their
// diagnostics sorted by position. Every analyzer records its suppressions
// in the program's one allow index, which a staleallow analyzer listed
// last then judges.
func Run(prog *Program, analyzers ...*Analyzer) []Diagnostic {
	rep := &reporter{seen: map[Diagnostic]bool{}}
	for _, a := range analyzers {
		a.Run(&Pass{Program: prog, Analyzer: a, rep: rep})
	}
	Sort(rep.diags)
	return rep.diags
}

// Sort orders diagnostics by file, line, column, analyzer and message —
// the stable output order lint.Run and cmd/verrolint present.
func Sort(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// CalleeOf returns the imported package path and selector name of a call's
// target when the call has the form pkg.Func(...); ok is false otherwise.
// It resolves the qualifier through the type checker, so `rand.Intn`
// matches math/rand regardless of import renaming.
func (p *Package) CalleeOf(call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := p.Info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// Package lint is VERRO's stdlib-only static-analysis framework. It exists
// because the project's load-bearing invariants — seeded runs are
// bit-identical at any worker count, tracing is observational-only, and the
// ε-indistinguishability math never silently degrades — are invisible to the
// compiler and were previously guarded only by equivalence tests that catch
// violations after they ship. The go command defines the packages: Load
// makes one `go list` call for its patterns, parses each matched package
// with go/parser and type-checks it with go/types, importing from the
// export data go list compiled, so there is no x/tools dependency. A set
// of Analyzers then runs over the typed syntax, producing position-tagged
// diagnostics.
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

// Analyzer is one named invariant check. Run inspects the typed package in
// the Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:allow
	// directives. Lower-case, no spaces.
	Name string
	// Doc is the one-line invariant the analyzer encodes.
	Doc string
	// Match, when non-nil, restricts the analyzer to packages whose import
	// path it accepts. A nil Match runs everywhere.
	Match func(pkgPath string) bool
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

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	allow *AllowIndex
	sink  *[]Diagnostic
}

// Reportf records a diagnostic at pos unless a //lint:allow directive for
// this analyzer covers the position's line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allow.Allows(p.Analyzer.Name, position) {
		return
	}
	*p.sink = append(*p.sink, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf is a nil-safe shorthand for the expression's type (nil when the
// checker could not infer one).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// PkgNameOf resolves the identifier to the imported package it names, or ""
// when it is not a package qualifier. This is how analyzers match
// `rand.Intn` to math/rand regardless of import renaming.
func (p *Pass) PkgNameOf(id *ast.Ident) string {
	if p.Info == nil {
		return ""
	}
	if pn, ok := p.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// CalleeOf returns the imported package path and selector name of a call's
// target when the call has the form pkg.Func(...); ok is false otherwise.
func (p *Pass) CalleeOf(call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	path := p.PkgNameOf(id)
	if path == "" {
		return "", "", false
	}
	return path, sel.Sel.Name, true
}

// Run executes the analyzers over the package and returns their combined
// diagnostics sorted by position. Analyzers whose Match rejects the package
// path are skipped.
func Run(pkg *Package, analyzers ...*Analyzer) []Diagnostic {
	var diags []Diagnostic
	allow := pkg.Allow()
	for _, a := range analyzers {
		if a.Match != nil && !a.Match(pkg.Path) {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			allow:    allow,
			sink:     &diags,
		}
		a.Run(pass)
	}
	Sort(diags)
	return diags
}

// Sort orders diagnostics by file, line, column, and analyzer — the stable
// output order every driver (lint.Run, the flow engine, cmd/verrolint)
// presents.
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
		return a.Analyzer < b.Analyzer
	})
}

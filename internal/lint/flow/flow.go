// Package flow is verrolint's dataflow layer: a stdlib-only forward taint
// engine over go/ast + go/types that proves VERRO's plumbing invariant —
// raw object observations (detections, trajectories, presence patterns)
// never reach a published artifact without passing the Phase-I/II
// sanitization machinery. The syntactic analyzers in internal/lint check
// single expressions; the engine here tracks values through assignments,
// struct fields, slices, maps, returns, and direct calls across package
// boundaries.
//
// Analysis is intraprocedural with per-function summaries: every function
// body is walked in isolation, producing a summary of how taint flows from
// its parameters to its results, into its parameters' object graphs, and
// into sinks it reaches internally. Summaries are iterated to a fixpoint
// over the whole program (bottom-up over the call graph, in deterministic
// sorted order), then a final reporting pass replays each body against the
// converged summaries. See DESIGN.md §2e for the taint lattice and the
// source/sanitizer/sink tables.
package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"verro/internal/lint"
)

// Analyzer is one dataflow check. Unlike lint.Analyzer, a flow analyzer
// sees the whole loaded program at once: diagnostics in one package can be
// caused by flows that pass through another.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:allow
	// directives.
	Name string
	// Doc is the one-line invariant the analyzer encodes.
	Doc string

	// cfg is the taint policy the shared engine runs.
	cfg *TaintConfig
}

// Program is the set of packages under analysis plus the function index
// engines resolve calls through.
type Program struct {
	Pkgs []*lint.Package

	funcs map[string]*funcDecl
}

// funcDecl pairs a function declaration with the package it was loaded
// from, so walks have the right types.Info and allow-directive index.
type funcDecl struct {
	pkg  *lint.Package
	decl *ast.FuncDecl
	obj  *types.Func
}

// NewProgram indexes the packages' function declarations by normalized
// full name.
func NewProgram(pkgs []*lint.Package) *Program {
	prog := &Program{Pkgs: pkgs, funcs: map[string]*funcDecl{}}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				prog.funcs[normName(obj)] = &funcDecl{pkg: pkg, decl: fd, obj: obj}
			}
		}
	}
	return prog
}

// funcNames returns the indexed function names in sorted order — the
// deterministic iteration order of every fixpoint round and of the
// reporting pass.
func (p *Program) funcNames() []string {
	names := make([]string, 0, len(p.funcs))
	for name := range p.funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// normName is a function's cross-package identity: types.Func.FullName
// with pointer-receiver stars stripped, so "(*T).M" and "(T).M" coincide.
// Name strings (not object pointers) key the summary table because a
// package analyzed from source and the same package imported from export
// data are distinct objects.
func normName(fn *types.Func) string {
	return strings.ReplaceAll(fn.FullName(), "*", "")
}

// shortName renders a normalized name for diagnostics with the module
// prefix trimmed: "(motio.SeriesTable).SaveCSV", "exp.Fig678".
func shortName(name string) string {
	name = strings.ReplaceAll(name, "verro/internal/", "")
	name = strings.ReplaceAll(name, "verro/cmd/", "")
	return strings.ReplaceAll(name, "verro/", "")
}

// Run executes the flow analyzers over the program formed by pkgs and
// returns the combined diagnostics sorted by position. //lint:allow
// directives suppress flow analyzers exactly as they do classic ones.
func Run(pkgs []*lint.Package, analyzers ...*Analyzer) []lint.Diagnostic {
	prog := NewProgram(pkgs)
	allow := map[*lint.Package]*lint.AllowIndex{}
	for _, pkg := range pkgs {
		allow[pkg] = pkg.Allow()
	}
	var diags []lint.Diagnostic
	for _, a := range analyzers {
		rep := &reporter{analyzer: a.Name, allow: allow, seen: map[string]bool{}}
		(&engine{prog: prog, cfg: a.cfg, sums: map[string]*summary{}}).run(rep)
		diags = append(diags, rep.diags...)
	}
	lint.Sort(diags)
	return diags
}

// reporter collects one analyzer's diagnostics across all packages,
// deduplicating repeats (loop-body fixpoints revisit statements) and
// honoring allow directives.
type reporter struct {
	analyzer string
	allow    map[*lint.Package]*lint.AllowIndex
	seen     map[string]bool
	diags    []lint.Diagnostic
}

func (r *reporter) reportf(pkg *lint.Package, pos token.Pos, format string, args ...any) {
	position := pkg.Fset.Position(pos)
	if r.allow[pkg].Allows(r.analyzer, position) {
		return
	}
	d := lint.Diagnostic{Pos: position, Analyzer: r.analyzer, Message: fmt.Sprintf(format, args...)}
	key := d.String()
	if r.seen[key] {
		return
	}
	r.seen[key] = true
	r.diags = append(r.diags, d)
}

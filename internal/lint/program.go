package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Program is what one run analyzes: the loaded packages, their
// //lint:allow directives, and an index of every function they declare
// with a body, through which the whole-program analyzers resolve calls.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package
	// Funcs indexes the declared functions by NormName.
	Funcs map[string]*Func
	// Names holds the keys of Funcs in sorted order: the deterministic
	// order of every fixpoint round and reporting pass.
	Names []string

	// allow holds every package's //lint:allow directives and records the
	// suppressions of all analyzers of a run.
	allow *AllowIndex
}

// Func is one indexed function declaration with the package it was
// loaded from, so a walk reads the right types.Info.
type Func struct {
	Pkg  *Package
	Decl *ast.FuncDecl
}

// newProgram indexes the packages' directives and function declarations.
func newProgram(fset *token.FileSet, pkgs []*Package) *Program {
	prog := &Program{Fset: fset, Pkgs: pkgs, Funcs: map[string]*Func{}}
	var files []*ast.File
	for _, pkg := range pkgs {
		files = append(files, pkg.Files...)
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					prog.Funcs[NormName(obj)] = &Func{Pkg: pkg, Decl: fd}
				}
			}
		}
	}
	names := make([]string, 0, len(prog.Funcs))
	for name := range prog.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	prog.Names = names
	prog.allow = BuildAllowIndex(fset, files)
	return prog
}

// maxRounds bounds a summary fixpoint. Convergence needs about one round
// per call-graph level; VERRO's deepest chain (cmd → facade → exp → core →
// ldp/motio) is far below this.
const maxRounds = 30

// Fixpoint iterates summarize over every indexed function in sorted name
// order, storing each result in sums, until a round changes no entry
// (equal(old, cur) says one is unchanged; old is the zero value before
// the first store) or maxRounds rounds have run. Summaries whose facts
// only grow ascend from the starting table to the least fixpoint.
func Fixpoint[S any](prog *Program, sums map[string]S, summarize func(*Func) S, equal func(old, cur S) bool) {
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, name := range prog.Names {
			if s := summarize(prog.Funcs[name]); !equal(sums[name], s) {
				sums[name] = s
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// NormName is a function's cross-package identity: types.Func.FullName
// with pointer-receiver stars stripped, so "(*T).M" and "(T).M" coincide.
// Name strings (not object pointers) key the function index, the
// summaries and the policy tables, because a package analyzed from source
// and the same package imported from export data are distinct objects.
func NormName(fn *types.Func) string {
	return strings.ReplaceAll(fn.FullName(), "*", "")
}

// ShortName renders a NormName for diagnostics with the module prefix
// trimmed: "(motio.SeriesTable).SaveCSV", "exp.Fig678".
func ShortName(name string) string {
	name = strings.ReplaceAll(name, "verro/internal/", "")
	name = strings.ReplaceAll(name, "verro/cmd/", "")
	return strings.ReplaceAll(name, "verro/", "")
}

// StaticCallee resolves a call to its target function when the callee is
// a plain identifier or selector, possibly generic-instantiated, and
// returns nil for a call through a func value. An interface method call
// resolves to the interface's method, so tables can key
// "(net/http.Flusher).Flush".
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	for {
		switch f := fun.(type) {
		case *ast.Ident:
			fn, _ := info.Uses[f].(*types.Func)
			return fn
		case *ast.SelectorExpr:
			fn, _ := info.Uses[f.Sel].(*types.Func)
			return fn
		case *ast.IndexExpr: // generic instantiation
			fun = ast.Unparen(f.X)
		case *ast.IndexListExpr:
			fun = ast.Unparen(f.X)
		default:
			return nil
		}
	}
}

// IsError reports whether t is the predeclared error type.
func IsError(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

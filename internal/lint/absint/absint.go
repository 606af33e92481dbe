package absint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"verro/internal/lint"
)

// Analyzer is one interval-domain policy check. Like a flow analyzer it
// sees the whole loaded program: function summaries computed in one
// package refine call results in another.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:allow
	// directives.
	Name string
	// Doc is the one-line invariant the analyzer encodes.
	Doc string
	// Match, when non-nil, restricts reporting to functions declared in
	// packages whose import path it accepts.
	Match func(pkgPath string) bool

	// hooks binds the analyzer's checks to a reporter targeted at one
	// function's package.
	hooks func(rc *reportCtx) hookFns
}

// hookFns are the callbacks the interpreter fires during the reporting
// pass, with the abstract state already evaluated. A nil field means the
// analyzer does not care about that event.
type hookFns struct {
	// call fires for every resolved call: callee is the normalized full
	// name, args the argument intervals (excluding the receiver).
	call func(call *ast.CallExpr, callee string, args []Interval)
	// div fires for every / and % (including /= and %=): divisor is the
	// right operand's interval, integer whether it is an integer op.
	div func(pos token.Pos, divisor Interval, integer bool)
	// index fires for every slice/array/string index: idx is the index
	// interval, length the container's length interval.
	index func(pos token.Pos, idx, length Interval)
	// probCmp fires when a value is compared against rand.Float64():
	// prob is the other operand's interval.
	probCmp func(pos token.Pos, prob Interval)
}

// program indexes the loaded packages' function declarations by
// normalized full name, mirroring the flow engine's cross-package
// identity: name strings, not object pointers, because each Loader
// re-type-checks dependencies into distinct universes.
type program struct {
	pkgs []*lint.Package
	fns  map[string]*fnInfo
}

type fnInfo struct {
	pkg  *lint.Package
	decl *ast.FuncDecl
	obj  *types.Func
}

func newProgram(pkgs []*lint.Package) *program {
	prog := &program{pkgs: pkgs, fns: map[string]*fnInfo{}}
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
				prog.fns[normName(obj)] = &fnInfo{pkg: pkg, decl: fd, obj: obj}
			}
		}
	}
	return prog
}

// fnNames returns the indexed names sorted — the deterministic iteration
// order of the summary fixpoint and the reporting pass.
func (p *program) fnNames() []string {
	names := make([]string, 0, len(p.fns))
	for name := range p.fns {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// normName strips pointer-receiver stars from types.Func.FullName so
// "(*T).M" and "(T).M" coincide, matching the flow engine's convention.
func normName(fn *types.Func) string {
	if o := fn.Origin(); o != nil {
		fn = o
	}
	return strings.ReplaceAll(fn.FullName(), "*", "")
}

// Run executes the interval analyzers over the program formed by pkgs:
// one summary fixpoint, then one reporting pass per function with every
// matching analyzer's hooks attached. Diagnostics come back sorted and
// deduplicated, with //lint:allow honored exactly as in the other suites.
func Run(pkgs []*lint.Package, analyzers ...*Analyzer) []lint.Diagnostic {
	prog := newProgram(pkgs)
	eng := &engine{prog: prog, sums: map[string][]Interval{}}
	eng.computeSummaries()

	allow := map[*lint.Package]*lint.AllowIndex{}
	for _, pkg := range pkgs {
		allow[pkg] = pkg.Allow()
	}
	var diags []lint.Diagnostic
	reps := make([]*reporter, len(analyzers))
	for i, a := range analyzers {
		reps[i] = &reporter{analyzer: a.Name, allow: allow, seen: map[string]bool{}}
	}
	for _, name := range prog.fnNames() {
		fn := prog.fns[name]
		var hooks []hookFns
		for i, a := range analyzers {
			if a.Match != nil && !a.Match(fn.pkg.Path) {
				continue
			}
			hooks = append(hooks, a.hooks(&reportCtx{rep: reps[i], pkg: fn.pkg}))
		}
		eng.analyzeDecl(fn, hooks)
	}
	for _, r := range reps {
		diags = append(diags, r.diags...)
	}
	lint.Sort(diags)
	return diags
}

// reporter collects one analyzer's diagnostics, deduplicating repeats and
// honoring allow directives (same contract as the flow engine's).
type reporter struct {
	analyzer string
	allow    map[*lint.Package]*lint.AllowIndex
	seen     map[string]bool
	diags    []lint.Diagnostic
}

// reportCtx targets a reporter at one package (for position resolution
// and its allow index).
type reportCtx struct {
	rep *reporter
	pkg *lint.Package
}

func (rc *reportCtx) reportf(pos token.Pos, format string, args ...any) {
	position := rc.pkg.Fset.Position(pos)
	if rc.rep.allow[rc.pkg].Allows(rc.rep.analyzer, position) {
		return
	}
	d := lint.Diagnostic{Pos: position, Analyzer: rc.rep.analyzer, Message: fmt.Sprintf(format, args...)}
	key := d.String()
	if rc.rep.seen[key] {
		return
	}
	rc.rep.seen[key] = true
	rc.rep.diags = append(rc.rep.diags, d)
}

// Package life is verrolint's lifecycle layer: a stdlib-only
// whole-program analysis of *service-lifetime* invariants over the verrod
// arc (cmd/verrod, internal/server, internal/store, internal/stream,
// internal/vid, internal/obs). Where the classic/flow/absint suites
// prove per-clip math — determinism, taint, intervals — this suite proves
// that a long-running server survives job churn: goroutines terminate
// (goleak) and acquired resources are released on every path
// (mustclose). Lock discipline and request cancellation have runtime
// witnesses instead: TestChurnNoLeaks and the race gates (DESIGN.md §2k).
//
// The suite reuses the shared CFG lowering (internal/lint/cfg) for its
// path-sensitive analyzer and mirrors the verroflow architecture for
// whole-program reasoning: every function gets a small lifecycle summary
// (may it diverge? which parameters does it take ownership of?),
// summaries are iterated to a bottom-up fixpoint in deterministic order,
// and the analyzers then replay each service-package body against the
// converged table.
//
// Soundness direction: the suite under-approximates. Unknown callees
// (stdlib, function values) are assumed to terminate and not take
// ownership; a clean run is evidence, not proof. The reverse direction —
// every diagnostic is a real policy violation on some CFG path — is what
// the sweep relies on, and the fixtures pin it.
package life

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"verro/internal/lint"
)

// Analyzer is one lifecycle check. Like the flow suite, an analyzer sees
// converged whole-program summaries; unlike it, the reporting pass is
// confined to the service packages named by the Config.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:allow
	// directives.
	Name string
	// Doc is the one-line invariant the analyzer encodes.
	Doc string

	run func(p *pass)
}

// Resource is one entry in the acquire table: calling the keyed function
// creates an obligation on result Result that only a Release method,
// a transfer of ownership, or (for CallRelease entries like context
// cancel funcs) calling the value itself discharges.
type Resource struct {
	// Kind labels the resource in diagnostics ("file", "ticker", ...).
	Kind string
	// Result is the index of the resource in the callee's result tuple.
	Result int
	// Release lists method names on the resource (or on its fields, as in
	// resp.Body.Close) that discharge the obligation.
	Release []string
	// CallRelease marks resources that are themselves func values,
	// discharged by being called (context.WithCancel's cancel).
	CallRelease bool
}

// Config is the lifecycle policy: which packages are under service
// discipline, which calls acquire resources, and which callees take
// ownership of their arguments.
type Config struct {
	// ServicePkgs lists the import paths under lifecycle policy; the
	// analyzers report only inside them (summaries are still computed
	// everywhere, so service code calling library code sees its facts).
	ServicePkgs []string
	// Resources maps normalized callee names to acquire rules.
	Resources map[string]Resource
	// Owners maps normalized callee names to the argument indices they
	// take ownership of, for callees outside the analyzed program whose
	// summaries cannot say so themselves (http.Server.Serve closes its
	// listener).
	Owners map[string][]int
}

// Service reports whether the import path is under lifecycle policy.
// Life fixture packages (the suite's own and the cmd/verrolint driver
// demo) are always in scope, so testdata exercises the real policy.
func (c *Config) Service(path string) bool {
	for _, p := range c.ServicePkgs {
		if path == p {
			return true
		}
	}
	return strings.Contains(path, "life/testdata") ||
		strings.Contains(path, "testdata/lifedemo")
}

// pass is one analyzer's view of one service package: its AST and types,
// the converged summary table, the policy, and the reporter.
type pass struct {
	pkg  *lint.Package
	cfg  *Config
	sums map[string]*Summary
	rep  *reporter
}

// look resolves a normalized function name to its converged summary.
func (p *pass) look(name string) *Summary {
	if name == "" {
		return nil
	}
	return p.sums[name]
}

func (p *pass) reportf(pos token.Pos, format string, args ...any) {
	p.rep.reportf(p.pkg, pos, format, args...)
}

// Run executes the lifecycle analyzers over the program formed by pkgs:
// summaries converge over every package, diagnostics are confined to the
// Config's service packages. //lint:allow directives suppress life
// analyzers exactly as they do classic ones.
func Run(pkgs []*lint.Package, cfg *Config, analyzers ...*Analyzer) []lint.Diagnostic {
	sums := Summaries(pkgs, cfg)
	allow := map[*lint.Package]*lint.AllowIndex{}
	for _, pkg := range pkgs {
		allow[pkg] = pkg.Allow()
	}
	var diags []lint.Diagnostic
	for _, a := range analyzers {
		rep := &reporter{analyzer: a.Name, allow: allow, seen: map[string]bool{}}
		for _, pkg := range pkgs {
			if !cfg.Service(pkg.Path) {
				continue
			}
			a.run(&pass{pkg: pkg, cfg: cfg, sums: sums, rep: rep})
		}
		diags = append(diags, rep.diags...)
	}
	lint.Sort(diags)
	return diags
}

// reporter collects one analyzer's diagnostics, deduplicating repeats
// (CFG fixpoints revisit blocks) and honoring allow directives.
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

// ---------------------------------------------------------------------
// Name and call resolution

// normName is a function's cross-package identity: types.Func.FullName
// with pointer-receiver stars stripped, matching the flow suite's keying.
func normName(fn *types.Func) string {
	return strings.ReplaceAll(fn.FullName(), "*", "")
}

// shortName renders a normalized name for diagnostics with the module
// prefix trimmed.
func shortName(name string) string {
	name = strings.ReplaceAll(name, "verro/internal/", "")
	name = strings.ReplaceAll(name, "verro/cmd/", "")
	return strings.ReplaceAll(name, "verro/", "")
}

// staticCallee resolves a call to its target *types.Func when the callee
// is a plain identifier or selector (possibly generic-instantiated).
// Interface method calls resolve to the interface's method, so tables can
// key "(net/http.Flusher).Flush".
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	for {
		switch f := fun.(type) {
		case *ast.Ident:
			fn, _ := info.Uses[f].(*types.Func)
			return fn
		case *ast.SelectorExpr:
			fn, _ := info.Uses[f.Sel].(*types.Func)
			return fn
		case *ast.IndexExpr:
			fun = ast.Unparen(f.X)
		case *ast.IndexListExpr:
			fun = ast.Unparen(f.X)
		default:
			return nil
		}
	}
}

// calleeName resolves a call to its normalized name, or "".
func calleeName(info *types.Info, call *ast.CallExpr) string {
	if fn := staticCallee(info, call); fn != nil {
		return normName(fn)
	}
	return ""
}

// baseIdent unwraps a selector chain (resp.Body.Close → resp) to its
// base identifier, or nil when the base is not a plain identifier.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// sortedNames returns the map's keys in sorted order — the deterministic
// iteration order of every fixpoint round and reporting pass.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

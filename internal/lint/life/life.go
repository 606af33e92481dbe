// Package life is verrolint's lifecycle layer: a stdlib-only
// whole-program analysis of *service-lifetime* invariants over the verrod
// arc (cmd/verrod, internal/server, internal/store, internal/stream,
// internal/vid, internal/obs). Where the classic and flow suites prove
// per-clip properties — determinism, taint — this suite proves that a
// long-running server survives job churn: goroutines terminate (goleak)
// and acquired resources are released on every path (mustclose). Lock
// discipline and request cancellation have runtime witnesses instead:
// TestChurnNoLeaks and the race gates (DESIGN.md §2k).
//
// The suite reuses the shared CFG lowering (internal/lint/cfg) for its
// path-sensitive analyzer and the program's function index and summary
// fixpoint (lint.Fixpoint) for whole-program reasoning: every function
// gets a small lifecycle summary (may it diverge? which parameters does
// it take ownership of?), summaries are iterated to a bottom-up fixpoint
// in deterministic order, once per run for both analyzers, and the
// analyzers then replay each service-package body against the converged
// table.
//
// Soundness direction: the suite under-approximates. Unknown callees
// (stdlib, function values) are assumed to terminate and not take
// ownership; a clean run is evidence, not proof. The reverse direction —
// every diagnostic is a real policy violation on some CFG path — is what
// the sweep relies on, and the fixtures pin it.
package life

import (
	"go/ast"
	"go/types"
	"slices"

	"verro/internal/lint"
)

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
func (c *Config) Service(path string) bool {
	return slices.Contains(c.ServicePkgs, path)
}

// pass is one analyzer's view of one service package: the run's
// lint.Pass, the package, the policy, and the converged summary table.
type pass struct {
	*lint.Pass
	pkg  *lint.Package
	cfg  *Config
	sums map[string]*Summary
}

// look resolves a normalized function name to its converged summary.
func (p *pass) look(name string) *Summary {
	if name == "" {
		return nil
	}
	return p.sums[name]
}

// NewAnalyzers builds goleak and mustclose under policy. Summaries
// converge over every package, once per program for both analyzers, and
// each analyzer checks the policy's service packages against them.
func NewAnalyzers(policy *Config) (goleak, mustclose *lint.Analyzer) {
	var prog *lint.Program
	var sums map[string]*Summary
	analyzer := func(name, doc string, check func(*pass)) *lint.Analyzer {
		return &lint.Analyzer{Name: name, Doc: doc, Run: func(lp *lint.Pass) {
			if prog != lp.Program {
				prog, sums = lp.Program, Summaries(lp.Program, policy)
			}
			for _, pkg := range lp.Pkgs {
				if policy.Service(pkg.Path) {
					check(&pass{Pass: lp, pkg: pkg, cfg: policy, sums: sums})
				}
			}
		}}
	}
	goleak = analyzer("goleak",
		"every goroutine started in a service package must have a provable termination path", runGoLeak)
	mustclose = analyzer("mustclose",
		"acquired resources must be released or ownership-transferred on every path", runMustClose)
	return goleak, mustclose
}

// calleeName resolves a call to its normalized name, or "".
func calleeName(info *types.Info, call *ast.CallExpr) string {
	if fn := lint.StaticCallee(info, call); fn != nil {
		return lint.NormName(fn)
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

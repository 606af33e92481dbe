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
// over the program's function index (lint.Fixpoint: bottom-up over the
// call graph, in deterministic sorted order), then a final reporting pass
// replays each body against the converged summaries. See DESIGN.md §2e
// for the taint lattice and the source/sanitizer/sink tables.
package flow

import "verro/internal/lint"

// NewAnalyzer builds a flow analyzer running a TaintConfig — the
// constructor behind the project analyzers, exported so tests (and future
// policies) can exercise the engine with small synthetic source/sink
// tables. Each run converges its own summary table over the program.
func NewAnalyzer(name, doc string, cfg *TaintConfig) *lint.Analyzer {
	return &lint.Analyzer{Name: name, Doc: doc, Run: func(pass *lint.Pass) {
		(&engine{pass: pass, cfg: cfg, sums: map[string]*summary{}}).run()
	}}
}

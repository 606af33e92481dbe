// Command verrolint runs VERRO's static-analysis suite over the repository
// in one pass: the classic single-expression analyzers (internal/lint) that
// mechanically enforce determinism invariants; the dataflow analyzers
// (internal/lint/flow) that prove raw object data never reaches a
// published artifact unsanitized and privacy parameters come from
// validated configs; and the lifecycle analyzers (internal/lint/life):
// goroutines spawned in the service arc terminate and acquired resources
// are released on every path. They are one list of lint.Analyzers, and
// every invocation runs all of them over one loaded program.
//
// The list ends with staleallow, which checks the //lint:allow
// directives: one naming an analyzer that does not exist suppresses
// nothing and is reported, and so is one whose analyzer suppressed
// nothing (suppress a deliberately speculative one with //lint:allow
// staleallow).
//
// Usage:
//
//	verrolint [-json] [-list] [pattern ...]
//
// Patterns are package directories; a trailing "/..." matches every
// package below one, as the go command defines packages ("./..." is the
// default). Every analyzer sees every matched package as one program, so
// cross-package flows are visible whenever both ends are in the pattern
// set.
//
// Exit status is 0 when clean, 1 when any diagnostic fired, 2 on load or
// usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"verro/internal/lint"
	"verro/internal/lint/flow"
	"verro/internal/lint/life"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiag is the -json wire form of one diagnostic, the stable shape CI
// can diff across PRs.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// analyzers is the one analyzer list: what -list prints, what every run
// executes in this order, and the only names a //lint:allow directive may
// carry. staleallow comes last, since it judges the directives once every
// other analyzer has reported.
func analyzers() []*lint.Analyzer {
	goleak, mustclose := life.NewAnalyzers(life.ProjectConfig())
	list := []*lint.Analyzer{
		lint.NewDetRand(),
		// Span timing is internal/obs's purpose, and internal/par reads
		// the clock for its worker busy gauges. Pipeline packages read
		// stage times from obs spans, so internal/core carries no walltime
		// allows; any other call site needs one, individually visible.
		lint.NewWallTime("verro/internal/obs", "verro/internal/par"),
		lint.NewMapOrder(),
		// fmt printing is publication under verro/cmd/ (the binaries'
		// stdout is the published experiment record) and under
		// verro/internal/server (SSE event payloads leave through
		// fmt.Fprintf on the response writer); other library packages may
		// print through the tracing layer.
		flow.NewPrivLeak("verro/cmd/", "verro/internal/server"),
		flow.NewEpsConsist(),
		flow.NewEpsHTTP(),
		goleak,
		mustclose,
	}
	return append(list, lint.NewStaleAllow(list...))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("verrolint", flag.ContinueOnError)
	fl.SetOutput(stderr)
	jsonOut := fl.Bool("json", false, "emit diagnostics as a JSON array (file, line, col, analyzer, message)")
	list := fl.Bool("list", false, "list the analyzers and their invariants, then exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}

	all := analyzers()
	if *list {
		for _, a := range all {
			fmt.Fprintf(stdout, "%-11s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fl.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := lint.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "verrolint: %v\n", err)
		return 2
	}
	diags := lint.Run(prog, all...)

	if *jsonOut {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				File:     filepath.ToSlash(d.Pos.Filename),
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "verrolint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "verrolint: %d diagnostic(s)%s\n", len(diags), analyzerCounts(diags))
		}
		return 1
	}
	return 0
}

// analyzerCounts renders the per-analyzer breakdown of the summary line,
// e.g. " (detrand 1, privleak 2)".
func analyzerCounts(diags []lint.Diagnostic) string {
	counts := map[string]int{}
	for _, d := range diags {
		counts[d.Analyzer]++
	}
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s %d", name, counts[name]))
	}
	return " (" + strings.Join(parts, ", ") + ")"
}

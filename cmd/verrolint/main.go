// Command verrolint runs VERRO's static-analysis suite over the repository
// in one pass: the classic single-expression analyzers (internal/lint) that
// mechanically enforce determinism, privacy-math, and error-handling
// invariants; the dataflow analyzers (internal/lint/flow) that prove raw
// object data never reaches a published artifact unsanitized, privacy
// parameters come from validated configs, and worker-pool closures stay
// race-free; the interval abstract interpreters (internal/lint/absint) that
// prove numeric invariants by value — probabilities in [0,1], ε ≥ 0,
// nonzero divisors, in-bounds indexing; and the lifecycle analyzers
// (internal/lint/life): goroutines spawned in the service arc terminate
// and acquired resources are released on every path. Every suite runs on
// every invocation.
//
// Every run also checks the //lint:allow directives: one naming an
// analyzer that does not exist suppresses nothing and is reported, and so
// is one whose analyzer suppressed nothing (suppress a deliberately
// speculative one with //lint:allow staleallow).
//
// Usage:
//
//	verrolint [-json] [-tests] [-list] [pattern ...]
//
// Patterns are package directories; a trailing "/..." walks recursively
// ("./..." is the default). The whole-program suites see every matched
// package as one program, so cross-package flows are visible whenever both
// ends are in the pattern set.
//
// Exit status is 0 when clean, 1 when any diagnostic fired, 2 on load or
// usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"verro/internal/lint"
	"verro/internal/lint/absint"
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

// suite is everything one run executes: the project configuration of each
// analyzer family.
type suite struct {
	classic []*lint.Analyzer
	flow    []*flow.Analyzer
	absint  []*absint.Analyzer
	life    []*life.Analyzer
	lifeCfg *life.Config
}

func projectSuite() *suite {
	return &suite{
		classic: lint.ProjectAnalyzers(),
		flow:    flow.ProjectAnalyzers(),
		absint:  absint.ProjectAnalyzers(),
		life:    life.ProjectAnalyzers(),
		lifeCfg: life.ProjectConfig(),
	}
}

// analyzerDoc is one row of the single analyzer list.
type analyzerDoc struct{ name, doc string }

// analyzers is the single analyzer list: what -list prints and the only
// names a //lint:allow directive may carry, the stale-allow pass included.
func (s *suite) analyzers() []analyzerDoc {
	var out []analyzerDoc
	for _, a := range s.classic {
		out = append(out, analyzerDoc{a.Name, a.Doc})
	}
	for _, a := range s.flow {
		out = append(out, analyzerDoc{a.Name, a.Doc})
	}
	for _, a := range s.absint {
		out = append(out, analyzerDoc{a.Name, a.Doc})
	}
	for _, a := range s.life {
		out = append(out, analyzerDoc{a.Name, a.Doc})
	}
	return append(out, analyzerDoc{lint.StaleAllowsName, "//lint:allow directives must name an analyzer and still suppress a diagnostic"})
}

// check runs every analyzer over the program formed by pkgs, then judges
// the allow directives once every suppression has been recorded against
// the shared per-package allow index.
func (s *suite) check(pkgs []*lint.Package) []lint.Diagnostic {
	var diags []lint.Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, lint.Run(pkg, s.classic...)...)
	}
	diags = append(diags, flow.Run(pkgs, s.flow...)...)
	diags = append(diags, absint.Run(pkgs, s.absint...)...)
	diags = append(diags, life.Run(pkgs, s.lifeCfg, s.life...)...)
	known := map[string]bool{}
	for _, a := range s.analyzers() {
		known[a.name] = true
	}
	for _, pkg := range pkgs {
		diags = append(diags, pkg.Allow().StaleAllows(known)...)
		diags = append(diags, pkg.Allow().UnknownAllows(known)...)
	}
	lint.Sort(diags)
	return diags
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("verrolint", flag.ContinueOnError)
	fl.SetOutput(stderr)
	jsonOut := fl.Bool("json", false, "emit diagnostics as a JSON array (file, line, col, analyzer, message)")
	tests := fl.Bool("tests", false, "also lint _test.go files")
	list := fl.Bool("list", false, "list the analyzers and their invariants, then exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}

	s := projectSuite()
	if *list {
		for _, a := range s.analyzers() {
			fmt.Fprintf(stdout, "%-11s %s\n", a.name, a.doc)
		}
		return 0
	}

	patterns := fl.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	for _, p := range patterns {
		expanded, err := expand(p, *tests)
		if err != nil {
			fmt.Fprintf(stderr, "verrolint: %v\n", err)
			return 2
		}
		dirs = append(dirs, expanded...)
	}
	if len(dirs) == 0 {
		fmt.Fprintln(stderr, "verrolint: no packages matched")
		return 2
	}

	loader := lint.NewLoader()
	loader.IncludeTests = *tests
	var pkgs []*lint.Package
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			fmt.Fprintf(stderr, "verrolint: %v\n", err)
			return 2
		}
		pkgs = append(pkgs, pkg)
	}
	diags := s.check(pkgs)

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

// expand resolves one pattern to package directories. "dir/..." walks dir
// recursively; anything else names a single directory. Walks skip testdata
// (lint fixtures deliberately violate the invariants), hidden directories,
// and directories with no Go files.
func expand(pattern string, includeTests bool) ([]string, error) {
	root, recursive := strings.CutSuffix(pattern, "...")
	if recursive {
		root = strings.TrimSuffix(root, "/")
	}
	if root == "" {
		root = "."
	}
	if !recursive {
		return []string{root}, nil
	}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if hasGoFiles(path, includeTests) {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

func hasGoFiles(dir string, includeTests bool) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		return true
	}
	return false
}

package lint

import (
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The fixture runner is this package's analysistest equivalent: a fixture
// is loaded as a program, the analyzers run over it, and every diagnostic
// must be matched by a `// want "regexp"` comment on the same line (and
// vice versa). A fixture therefore documents both what an analyzer flags
// and — via //lint:allow lines carrying no want comment — what the
// directive suppresses.

// wantRx extracts the quoted expectations from a `// want "a" "b"` comment.
var wantRx = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// expectation is one `// want` pattern awaiting a diagnostic.
type expectation struct {
	file    string
	line    int
	rx      *regexp.Regexp
	matched bool
}

// CheckFixture loads the pattern — a fixture directory, or dir/... for a
// fixture of several packages, such as one proving cross-package summary
// propagation — as one program, runs the analyzers, and returns one
// problem string per mismatch between diagnostics and want comments. A
// nil problems slice means the fixture asserts exactly its annotations.
// Load or want-regexp errors are returned as err.
func CheckFixture(pattern string, analyzers ...*Analyzer) (problems []string, err error) {
	prog, err := Load(pattern)
	if err != nil {
		return nil, err
	}
	return CheckDiagnostics(prog, Run(prog, analyzers...))
}

// CheckDiagnostics matches an already-computed diagnostic set against the
// `// want` comments of the program's packages, returning one problem
// string per mismatch. It is the core of CheckFixture, used directly on a
// program the loader returned beside its type errors.
func CheckDiagnostics(prog *Program, diags []Diagnostic) (problems []string, err error) {
	var expects []*expectation
	for _, pkg := range prog.Pkgs {
		es, err := collectWants(prog.Fset, pkg)
		if err != nil {
			return nil, err
		}
		expects = append(expects, es...)
	}

	for _, d := range diags {
		if e := matchExpectation(expects, d); e != nil {
			e.matched = true
			continue
		}
		problems = append(problems, fmt.Sprintf("%s: unexpected diagnostic: %s (%s)",
			shortPos(d.Pos), d.Message, d.Analyzer))
	}
	for _, e := range expects {
		if !e.matched {
			problems = append(problems, fmt.Sprintf("%s:%d: no diagnostic matching %q",
				e.file, e.line, e.rx))
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// RunFixture is the testing wrapper around CheckFixture.
func RunFixture(t *testing.T, pattern string, analyzers ...*Analyzer) {
	t.Helper()
	problems, err := CheckFixture(pattern, analyzers...)
	if err != nil {
		t.Fatalf("fixture %s: %v", pattern, err)
	}
	for _, p := range problems {
		t.Errorf("fixture %s: %s", pattern, p)
	}
}

// collectWants scans the fixture's comments for want expectations.
func collectWants(fset *token.FileSet, pkg *Package) ([]*expectation, error) {
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				quoted := wantRx.FindAllStringSubmatch(rest, -1)
				if len(quoted) == 0 {
					return nil, fmt.Errorf("%s:%d: want comment without quoted pattern", pos.Filename, pos.Line)
				}
				for _, q := range quoted {
					rx, err := regexp.Compile(q[1])
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want pattern: %v", pos.Filename, pos.Line, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, rx: rx})
				}
			}
		}
	}
	return out, nil
}

// matchExpectation finds an unmatched expectation on the diagnostic's line
// whose pattern matches the message.
func matchExpectation(expects []*expectation, d Diagnostic) *expectation {
	for _, e := range expects {
		if !e.matched && e.file == d.Pos.Filename && e.line == d.Pos.Line && e.rx.MatchString(d.Message) {
			return e
		}
	}
	return nil
}

func shortPos(pos token.Position) string {
	return fmt.Sprintf("%s:%d:%d", pos.Filename, pos.Line, pos.Column)
}

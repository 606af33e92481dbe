package lint

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// One fixture per analyzer; each fixture contains at least one flagged line
// (asserted by a want comment) and one //lint:allow-suppressed line
// (asserted by the absence of a want comment — an unexpected diagnostic
// there fails the fixture).
func TestDetRandFixture(t *testing.T)  { RunFixture(t, "testdata/detrand", NewDetRand()) }
func TestWallTimeFixture(t *testing.T) { RunFixture(t, "testdata/walltime", NewWallTime()) }
func TestMapOrderFixture(t *testing.T) { RunFixture(t, "testdata/maporder", NewMapOrder()) }

// TestProjectSuite pins how NewWallTime applies its exemptions: given
// the project's two, walltime skips internal/obs and internal/par but not
// internal/core, while detrand and maporder run in every package. The list
// cmd/verrolint ships, with its own exemptions, is pinned by that
// command's TestRunListMode and TestProjectScoping.
func TestProjectSuite(t *testing.T) {
	detrand, walltime, maporder := NewDetRand(), NewWallTime("verro/internal/obs", "verro/internal/par"), NewMapOrder()
	for _, a := range []*Analyzer{detrand, walltime, maporder} {
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc", a.Name)
		}
	}

	// Each package of a module named verro trips all three analyzers.
	const src = `package %s

import (
	"math/rand"
	"time"
)

func Now() time.Time { return time.Now() }

func Draw() int { return rand.Intn(6) }

func Sum(m map[string]float64) (s float64) {
	for _, v := range m {
		s += v
	}
	return s
}
`
	files := map[string]string{"go.mod": "module verro\n\ngo 1.22\n"}
	for _, name := range []string{"obs", "par", "core"} {
		files["internal/"+name+"/"+name+".go"] = fmt.Sprintf(src, name)
	}
	prog := loadTree(t, files)
	var got []string
	for _, d := range Run(prog, detrand, walltime, maporder) {
		got = append(got, d.Analyzer+":"+filepath.Base(d.Pos.Filename))
	}
	sort.Strings(got)
	want := "detrand:core.go detrand:obs.go detrand:par.go maporder:core.go maporder:obs.go maporder:par.go walltime:core.go"
	if strings.Join(got, " ") != want {
		t.Errorf("findings = %q, want %q", strings.Join(got, " "), want)
	}
}

// loadTree writes files, a go.mod among them, into a fresh directory and
// loads every package below it.
func loadTree(t *testing.T, files map[string]string) *Program {
	t.Helper()
	prog, err := Load(filepath.Join(writeTree(t, files), "..."))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestRunReporter pins what lint.Run does with what analyzers report: a
// toy analyzer reports every return statement twice, walking the
// packages in reverse. Each finding comes back once, the one on a
// //lint:allow toy line is suppressed and that directive counts as used
// (staleallow stays quiet), and the output is in Sort order.
func TestRunReporter(t *testing.T) {
	prog := loadTree(t, map[string]string{
		"go.mod": "module toy\n\ngo 1.22\n",
		"a/a.go": "package a\n\nfunc A() int { return 1 }\n",
		"b/b.go": "package b\n\nfunc B() int { return 2 }\n\nfunc C() int {\n\treturn 3 //lint:allow toy excused\n}\n",
	})
	toy := &Analyzer{Name: "toy", Doc: "reports every return statement"}
	toy.Run = func(pass *Pass) {
		for i := len(pass.Pkgs) - 1; i >= 0; i-- {
			for _, f := range pass.Pkgs[i].Files {
				ast.Inspect(f, func(n ast.Node) bool {
					if ret, ok := n.(*ast.ReturnStmt); ok {
						pass.Reportf(ret.Pos(), "return")
						pass.Reportf(ret.Pos(), "return")
					}
					return true
				})
			}
		}
	}
	var got []string
	for _, d := range Run(prog, toy, NewStaleAllow(toy)) {
		got = append(got, fmt.Sprintf("%s/%s:%d (%s)", filepath.Base(filepath.Dir(d.Pos.Filename)), filepath.Base(d.Pos.Filename), d.Pos.Line, d.Analyzer))
	}
	if want := "a/a.go:3 (toy),b/b.go:3 (toy)"; strings.Join(got, ",") != want {
		t.Errorf("diagnostics = %q, want %q", strings.Join(got, ","), want)
	}
}

// TestRunOverOwnPackage smoke-tests the loader + runner over this package:
// internal/lint must be clean under its own analyzers.
func TestRunOverOwnPackage(t *testing.T) {
	prog, err := Load(".")
	if err != nil {
		t.Fatal(err)
	}
	if prog.Pkgs[0].Path != "verro/internal/lint" {
		t.Fatalf("import path = %q, want verro/internal/lint", prog.Pkgs[0].Path)
	}
	if diags := Run(prog, NewDetRand(), NewWallTime(), NewMapOrder()); len(diags) != 0 {
		for _, d := range diags {
			t.Errorf("unexpected: %s", d)
		}
	}
}

// TestDiagnosticString pins the human-readable diagnostic format the CLI
// prints.
func TestDiagnosticString(t *testing.T) {
	prog, err := Load("testdata/detrand")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(prog, NewDetRand())
	if len(diags) == 0 {
		t.Fatal("no diagnostics from detrand fixture")
	}
	s := diags[0].String()
	if !strings.Contains(s, "testdata/detrand/detrand.go:") || !strings.Contains(s, "(detrand)") {
		t.Errorf("diagnostic format %q missing file position or analyzer tag", s)
	}
}

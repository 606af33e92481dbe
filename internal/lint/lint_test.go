package lint

import (
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
func TestFloatEqFixture(t *testing.T)  { RunFixture(t, "testdata/floateq", NewFloatEq()) }

// TestProjectSuite pins the suite's composition: four analyzers, each
// resolvable by name, with the package scoping DESIGN.md §2d documents.
func TestProjectSuite(t *testing.T) {
	suite := ProjectAnalyzers()
	if len(suite) != 4 {
		t.Fatalf("suite has %d analyzers, want 4", len(suite))
	}
	for _, name := range []string{"detrand", "walltime", "maporder", "floateq"} {
		a := ByName(name)
		if a == nil {
			t.Fatalf("ByName(%q) = nil", name)
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc", name)
		}
	}
	if ByName("nope") != nil {
		t.Error("ByName of unknown analyzer should be nil")
	}

	cases := []struct {
		analyzer, pkg string
		want          bool
	}{
		{"walltime", "verro/internal/obs", false},
		{"walltime", "verro/internal/par", false},
		{"walltime", "verro/internal/core", true},
		{"floateq", "verro/internal/ldp", true},
		{"floateq", "verro/internal/lp", true},
		{"floateq", "verro/internal/vid", false},
	}
	for _, c := range cases {
		a := ByName(c.analyzer)
		got := a.Match == nil || a.Match(c.pkg)
		if got != c.want {
			t.Errorf("%s.Match(%q) = %v, want %v", c.analyzer, c.pkg, got, c.want)
		}
	}
	// Unscoped analyzers run everywhere.
	for _, name := range []string{"detrand", "maporder"} {
		if ByName(name).Match != nil {
			t.Errorf("%s should run in every package", name)
		}
	}
}

// TestRunOverOwnPackage smoke-tests the loader + runner over this package:
// internal/lint must be clean under its own suite.
func TestRunOverOwnPackage(t *testing.T) {
	l := NewLoader()
	pkg, err := l.Load(".")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Path != "verro/internal/lint" {
		t.Fatalf("import path = %q, want verro/internal/lint", pkg.Path)
	}
	if diags := Run(pkg, ProjectAnalyzers()...); len(diags) != 0 {
		for _, d := range diags {
			t.Errorf("unexpected: %s", d)
		}
	}
}

// TestDiagnosticString pins the human-readable diagnostic format the CLI
// prints.
func TestDiagnosticString(t *testing.T) {
	l := NewLoader()
	pkg, err := l.Load("testdata/floateq")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkg, NewFloatEq())
	if len(diags) == 0 {
		t.Fatal("no diagnostics from floateq fixture")
	}
	s := diags[0].String()
	if !strings.Contains(s, "testdata/floateq/floateq.go:") || !strings.Contains(s, "(floateq)") {
		t.Errorf("diagnostic format %q missing file position or analyzer tag", s)
	}
}

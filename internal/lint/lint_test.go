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

// TestProjectSuite pins the suite's composition: three analyzers, in
// order, each documented, with the package scoping DESIGN.md §2d
// documents.
func TestProjectSuite(t *testing.T) {
	suite := map[string]*Analyzer{}
	var names []string
	for _, a := range ProjectAnalyzers() {
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc", a.Name)
		}
		suite[a.Name] = a
		names = append(names, a.Name)
	}
	if got, want := strings.Join(names, " "), "detrand walltime maporder"; got != want {
		t.Fatalf("suite = %q, want %q", got, want)
	}

	cases := []struct {
		pkg  string
		want bool
	}{
		{"verro/internal/obs", false},
		{"verro/internal/par", false},
		{"verro/internal/core", true},
	}
	for _, c := range cases {
		if got := suite["walltime"].Match(c.pkg); got != c.want {
			t.Errorf("walltime.Match(%q) = %v, want %v", c.pkg, got, c.want)
		}
	}
	// Unscoped analyzers run everywhere.
	for _, name := range []string{"detrand", "maporder"} {
		if suite[name].Match != nil {
			t.Errorf("%s should run in every package", name)
		}
	}
}

// TestRunOverOwnPackage smoke-tests the loader + runner over this package:
// internal/lint must be clean under its own suite.
func TestRunOverOwnPackage(t *testing.T) {
	pkgs, err := Load(".")
	if err != nil {
		t.Fatal(err)
	}
	if pkgs[0].Path != "verro/internal/lint" {
		t.Fatalf("import path = %q, want verro/internal/lint", pkgs[0].Path)
	}
	if diags := Run(pkgs[0], ProjectAnalyzers()...); len(diags) != 0 {
		for _, d := range diags {
			t.Errorf("unexpected: %s", d)
		}
	}
}

// TestDiagnosticString pins the human-readable diagnostic format the CLI
// prints.
func TestDiagnosticString(t *testing.T) {
	pkgs, err := Load("testdata/detrand")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs[0], NewDetRand())
	if len(diags) == 0 {
		t.Fatal("no diagnostics from detrand fixture")
	}
	s := diags[0].String()
	if !strings.Contains(s, "testdata/detrand/detrand.go:") || !strings.Contains(s, "(detrand)") {
		t.Errorf("diagnostic format %q missing file position or analyzer tag", s)
	}
}

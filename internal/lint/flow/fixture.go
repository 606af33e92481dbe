package flow

import (
	"testing"

	"verro/internal/lint"
)

// NewAnalyzer builds a flow analyzer running a custom TaintConfig — the
// constructor behind the project analyzers, exported so tests (and future
// policies) can exercise the engine with small synthetic source/sink
// tables.
func NewAnalyzer(name, doc string, cfg *TaintConfig) *Analyzer {
	return &Analyzer{Name: name, Doc: doc, cfg: cfg}
}

// CheckFixture loads the fixture directories as one program, runs the flow
// analyzers over it, and returns one problem per mismatch against the
// fixtures' `// want` comments. Multiple directories form one Program so a
// fixture can prove cross-package summary propagation.
func CheckFixture(dirs []string, analyzers ...*Analyzer) (problems []string, err error) {
	pkgs, err := lint.Load(dirs...)
	if err != nil {
		return nil, err
	}
	return lint.CheckDiagnostics(pkgs, Run(pkgs, analyzers...))
}

// RunFixture is the testing wrapper around CheckFixture.
func RunFixture(t *testing.T, dirs []string, analyzers ...*Analyzer) {
	t.Helper()
	problems, err := CheckFixture(dirs, analyzers...)
	if err != nil {
		t.Fatalf("fixture %v: %v", dirs, err)
	}
	for _, p := range problems {
		t.Errorf("fixture %v: %s", dirs, p)
	}
}

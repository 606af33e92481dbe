package flow

import (
	"sync"
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
func CheckFixture(l *lint.Loader, dirs []string, analyzers ...*Analyzer) (problems []string, err error) {
	var pkgs []*lint.Package
	for _, dir := range dirs {
		pkg, err := l.Load(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return lint.CheckDiagnostics(pkgs, Run(pkgs, analyzers...))
}

// fixtureLoader is the one loader the fixture runs of a test binary share:
// its source importer type-checks the standard library packages the
// fixtures import (net/http, encoding/json and their dependencies) once,
// not once per fixture.
var fixtureLoader = sync.OnceValue(lint.NewLoader)

// RunFixture is the testing wrapper around CheckFixture.
func RunFixture(t *testing.T, dirs []string, analyzers ...*Analyzer) {
	t.Helper()
	problems, err := CheckFixture(fixtureLoader(), dirs, analyzers...)
	if err != nil {
		t.Fatalf("fixture %v: %v", dirs, err)
	}
	for _, p := range problems {
		t.Errorf("fixture %v: %s", dirs, p)
	}
}

package life

import (
	"sync"
	"testing"

	"verro/internal/lint"
)

// CheckFixture loads the fixture directories as one program, runs the
// life analyzers over it under the project policy — extended so the
// fixture packages themselves count as service packages — and returns
// one problem per mismatch against the fixtures' `// want` comments.
func CheckFixture(l *lint.Loader, dirs []string, analyzers ...*Analyzer) (problems []string, err error) {
	var pkgs []*lint.Package
	for _, dir := range dirs {
		pkg, err := l.Load(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	cfg := ProjectConfig()
	for _, pkg := range pkgs {
		cfg.ServicePkgs = append(cfg.ServicePkgs, pkg.Path)
	}
	return lint.CheckDiagnostics(pkgs, Run(pkgs, cfg, analyzers...))
}

// fixtureLoader is the one loader the fixture runs of a test binary share:
// its source importer type-checks the standard library packages the
// fixtures import once, not once per fixture.
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

package life

import (
	"testing"

	"verro/internal/lint"
)

// CheckFixture loads the fixture directories as one program, runs the
// life analyzers over it under the project policy — extended so the
// fixture packages themselves count as service packages — and returns
// one problem per mismatch against the fixtures' `// want` comments.
func CheckFixture(dirs []string, analyzers ...*Analyzer) (problems []string, err error) {
	pkgs, err := lint.Load(dirs...)
	if err != nil {
		return nil, err
	}
	cfg := ProjectConfig()
	for _, pkg := range pkgs {
		cfg.ServicePkgs = append(cfg.ServicePkgs, pkg.Path)
	}
	return lint.CheckDiagnostics(pkgs, Run(pkgs, cfg, analyzers...))
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

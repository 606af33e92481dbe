package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"verro/internal/lint"
	"verro/internal/lint/life"
)

// The lifedemo fixture plants one finding per lifecycle analyzer: a
// diverging goroutine (goleak) and a leaked file handle (mustclose), and
// nothing any other suite reports. It is the acceptance check for the
// lifecycle suite in the assembled driver.

func TestRunLifeCatchesSeededFindings(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "./testdata/lifedemo"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	var diags []jsonDiag
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, stdout.String())
	}
	byAnalyzer := map[string]int{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer]++
		if d.File == "" || d.Line == 0 || d.Col == 0 {
			t.Errorf("diagnostic missing file:line:col: %+v", d)
		}
	}
	if len(diags) != 2 || byAnalyzer["goleak"] != 1 || byAnalyzer["mustclose"] != 1 {
		t.Errorf("per-analyzer counts = %v, want exactly one goleak and one mustclose", byAnalyzer)
	}
	matchGolden(t, "lifedemo.json", stdout.Bytes())
}

// TestRunLifeAllSuppressed: the allow twin carries a justified
// //lint:allow on every seeded line, so the run exits 0 — and the
// stale-allow pass must not flag any of the directives.
func TestRunLifeAllSuppressed(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"./testdata/lifedemo/allow"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("all-suppressed run produced output:\n%s", stdout.String())
	}

	if code := run([]string{"-json", "./testdata/lifedemo/allow"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-json: exit = %d, want 0", code)
	}
	matchGolden(t, "lifedemo-allow.json", stdout.Bytes())
}

// TestLifeAnalyzerNamesUniqueAcrossSuites: every lifecycle analyzer appears
// exactly once in the driver's single analyzer list, so its allow
// directives are judged rather than reported as naming no analyzer, and no
// other suite's directive can silence its findings.
func TestLifeAnalyzerNamesUniqueAcrossSuites(t *testing.T) {
	count := map[string]int{}
	for _, a := range analyzers() {
		count[a.Name]++
	}
	goleak, mustclose := life.NewAnalyzers(life.ProjectConfig())
	for _, a := range []*lint.Analyzer{goleak, mustclose} {
		if count[a.Name] != 1 {
			t.Errorf("lifecycle analyzer %q appears %d times in the analyzer list, want 1", a.Name, count[a.Name])
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// The absintdemo fixture plants a flip probability of 1.5 and an ε of
// -0.25 — values the interval interpreter proves out of range, and nothing
// any other suite reports. It is the acceptance check for the interval
// suite in the assembled driver: loader, interval engine, project policy,
// reporting.

func TestRunAbsintCatchesSeededViolation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "./testdata/absintdemo"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	var diags []jsonDiag
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, stdout.String())
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %+v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Analyzer != "probrange" {
			t.Errorf("analyzer = %q, want probrange (%+v)", d.Analyzer, d)
		}
		if d.File == "" || d.Line == 0 || d.Col == 0 {
			t.Errorf("diagnostic missing file:line:col: %+v", d)
		}
		if !strings.HasSuffix(d.File, "testdata/absintdemo/main.go") {
			t.Errorf("unexpected file %q", d.File)
		}
	}
	var sawFlip, sawEps bool
	for _, d := range diags {
		if strings.Contains(d.Message, "provably outside [0, 1]") {
			sawFlip = true
		}
		if strings.Contains(d.Message, "provably negative") {
			sawEps = true
		}
	}
	if !sawFlip || !sawEps {
		t.Errorf("missing expected messages (flip=%v, eps=%v): %+v", sawFlip, sawEps, diags)
	}
}

func TestRunAbsintFixturePackagesFail(t *testing.T) {
	for _, dir := range []string{
		"../../internal/lint/absint/testdata/probrange",
		"../../internal/lint/absint/testdata/divzero",
		"../../internal/lint/absint/testdata/idxbound",
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{dir}, &stdout, &stderr); code != 1 {
			t.Errorf("%s: exit = %d, want 1\nstdout: %s\nstderr: %s", dir, code, stdout.String(), stderr.String())
		}
	}
}

func TestRunListIncludesAbsintAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range []string{"probrange", "divzero", "idxbound"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list missing %s:\n%s", name, stdout.String())
		}
	}
}

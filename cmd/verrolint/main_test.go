package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

const dirtySrc = `package dirty

import "math/rand"

func Draw() int {
	return rand.Intn(6)
}
`

const cleanSrc = `package clean

import "math/rand"

func Draw(rng *rand.Rand) int {
	return rng.Intn(6)
}
`

func TestRunCleanDir(t *testing.T) {
	root := writeTree(t, map[string]string{"go.mod": "module tmpmod\n", "clean.go": cleanSrc})
	var out, errb bytes.Buffer
	if code := run([]string{root}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr = %s, stdout = %s", code, errb.String(), out.String())
	}
	if out.Len() != 0 {
		t.Fatalf("clean run should print nothing, got %q", out.String())
	}
}

func TestRunDirtyDirTextMode(t *testing.T) {
	root := writeTree(t, map[string]string{"go.mod": "module tmpmod\n", "dirty.go": dirtySrc})
	var out, errb bytes.Buffer
	if code := run([]string{root}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr %s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "dirty.go:6:9:") || !strings.Contains(out.String(), "(detrand)") {
		t.Fatalf("diagnostic line missing position or analyzer: %q", out.String())
	}
	if !strings.Contains(errb.String(), "1 diagnostic(s)") {
		t.Fatalf("summary missing: %q", errb.String())
	}
}

func TestRunJSONMode(t *testing.T) {
	root := writeTree(t, map[string]string{"go.mod": "module tmpmod\n", "dirty.go": dirtySrc})
	var out, errb bytes.Buffer
	if code := run([]string{"-json", root}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr %s)", code, errb.String())
	}
	var diags []jsonDiag
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("bad JSON %q: %v", out.String(), err)
	}
	if len(diags) != 1 {
		t.Fatalf("diags = %+v, want exactly 1", diags)
	}
	d := diags[0]
	if d.Analyzer != "detrand" || d.Line != 6 || d.Col != 9 || !strings.HasSuffix(d.File, "dirty.go") {
		t.Fatalf("diag = %+v", d)
	}
	if !strings.Contains(d.Message, "math/rand.Intn") {
		t.Fatalf("message = %q", d.Message)
	}
}

func TestRunRecursiveSkipsTestdata(t *testing.T) {
	// The violation sits under testdata/, which a "..." walk must skip —
	// lint fixtures violate the invariants on purpose.
	root := writeTree(t, map[string]string{
		"go.mod":                "module tmpmod\n",
		"clean.go":              cleanSrc,
		"sub/testdata/dirty.go": dirtySrc,
		"sub/clean.go":          strings.Replace(cleanSrc, "package clean", "package sub", 1),
		".hidden/dirty.go":      dirtySrc,
		"_underscore/dirty.go":  dirtySrc,
	})
	var out, errb bytes.Buffer
	if code := run([]string{filepath.Join(root, "...")}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stdout %q stderr %q", code, out.String(), errb.String())
	}
}

func TestRunJSONEmptyArray(t *testing.T) {
	// A clean -json run must still emit a valid (empty) array so CI can
	// diff findings across PRs without special-casing.
	root := writeTree(t, map[string]string{"go.mod": "module tmpmod\n", "clean.go": cleanSrc})
	var out, errb bytes.Buffer
	if code := run([]string{"-json", root}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr %s", code, errb.String())
	}
	var diags []jsonDiag
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("bad JSON %q: %v", out.String(), err)
	}
	if diags == nil || len(diags) != 0 {
		t.Fatalf("want empty non-null array, got %q", out.String())
	}
}

func TestRunListMode(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, name := range []string{"detrand", "walltime", "maporder", "floateq", "panicfree", "goleak", "mustclose", "staleallow"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("list output missing %s: %q", name, out.String())
		}
	}
}

func TestRunBadDir(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{filepath.Join(t.TempDir(), "nope")}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

// TestRunBadFlag: the driver takes -json, -list and -tests only; every
// suite always runs, so the old suite switches, the fact cache and the
// baseline are usage errors too.
func TestRunBadFlag(t *testing.T) {
	for _, flag := range []string{"-definitely-not-a-flag", "-classic=false", "-flow=false", "-absint", "-perf", "-life", "-cache=dir", "-bench=out.json", "-baseline=base.json"} {
		var out, errb bytes.Buffer
		if code := run([]string{flag, "./testdata/leakdemo"}, &out, &errb); code != 2 {
			t.Errorf("%s: exit = %d, want 2", flag, code)
		}
	}
}

// TestRunUnknownAnalyzerAllow: an allow directive naming an analyzer that
// does not exist (a typo, or one since deleted) suppresses nothing, so the
// run reports it.
func TestRunUnknownAnalyzerAllow(t *testing.T) {
	root := writeTree(t, map[string]string{"go.mod": "module tmpmod\n", "typo.go": `package typo

func One() int {
	return 1 //lint:allow hotlloc nothing here
}
`})
	var out, errb bytes.Buffer
	if code := run([]string{root}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "typo.go:4:11: //lint:allow hotlloc: no analyzer named hotlloc") ||
		!strings.Contains(out.String(), "(staleallow)") {
		t.Fatalf("unknown-analyzer directive not reported under staleallow:\n%s", out.String())
	}
}

// TestAnalyzerNamesUniqueAcrossSuites: allow directives key on analyzer
// names alone, so two suites sharing a name would let one analyzer's
// directive silence the other's findings.
func TestAnalyzerNamesUniqueAcrossSuites(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range projectSuite().analyzers() {
		if seen[a.name] {
			t.Errorf("analyzer name %q used twice", a.name)
		}
		seen[a.name] = true
	}
}

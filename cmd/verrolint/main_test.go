package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"verro/internal/lint"
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

// TestRunRecursiveSkipsTestOnlyDir: "..." matches a directory that holds
// only _test.go files as a package with no Go files to lint. The run skips
// it, and the violation in its test file goes unread.
func TestRunRecursiveSkipsTestOnlyDir(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":            "module tmpmod\n",
		"clean.go":          cleanSrc,
		"only/only_test.go": strings.Replace(dirtySrc, "package dirty", "package only", 1),
	})
	var out, errb bytes.Buffer
	if code := run([]string{filepath.Join(root, "...")}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stdout %q stderr %q", code, out.String(), errb.String())
	}
}

// TestRunUnderscoreModuleRoot: a module whose directory is named _x still
// lints under "<root>/...", although the go command skips such a
// directory when "..." reaches it from above.
func TestRunUnderscoreModuleRoot(t *testing.T) {
	root := writeTree(t, map[string]string{"_mod/go.mod": "module tmpmod\n", "_mod/dirty.go": dirtySrc})
	var out, errb bytes.Buffer
	if code := run([]string{filepath.Join(root, "_mod", "...")}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1 (stdout %q stderr %q)", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "(detrand)") {
		t.Fatalf("the module was not linted: %q", out.String())
	}
}

// TestRunOutsideModule: the go command resolves every package, so a
// directory outside any module fails the load with go list's own message.
func TestRunOutsideModule(t *testing.T) {
	root := writeTree(t, map[string]string{"clean.go": cleanSrc})
	var out, errb bytes.Buffer
	if code := run([]string{root}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2 (stderr %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "go.mod file not found") {
		t.Fatalf("stderr lacks go list's reason: %q", errb.String())
	}
}

// TestRunTypeErrorNamesPackage: a package that does not type-check is
// refused with exit 2 and named, as go vet refuses one.
func TestRunTypeErrorNamesPackage(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":     "module tmpmod\n",
		"bad/bad.go": "package bad\n\nfunc F() int { return undefinedName }\n",
	})
	var out, errb bytes.Buffer
	if code := run([]string{filepath.Join(root, "...")}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2 (stderr %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "tmpmod/bad does not type-check") || !strings.Contains(errb.String(), "undefinedName") {
		t.Fatalf("stderr does not name the package and its error: %q", errb.String())
	}
}

// TestRunJSONRelativeFile: for a relative pattern, -json names each file
// relative to the working directory, the form CI diffs, although the go
// command reports absolute directories.
func TestRunJSONRelativeFile(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-json", "./testdata/leakdemo"}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr %s)", code, errb.String())
	}
	var diags []jsonDiag
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("bad JSON %q: %v", out.String(), err)
	}
	if len(diags) == 0 {
		t.Fatal("no diagnostics from leakdemo")
	}
	for _, d := range diags {
		if d.File != "testdata/leakdemo/main.go" {
			t.Errorf("file = %q, want testdata/leakdemo/main.go", d.File)
		}
	}
}

// TestRunModuleClean is `make lint` inside `go test ./...`: every suite
// over every package of the module, failing on any diagnostic.
func TestRunModuleClean(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"../../..."}, &out, &errb); code != 0 {
		t.Fatalf("verrolint over the module: exit = %d\n%s%s", code, out.String(), errb.String())
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

// TestRunListMode pins the single analyzer list, in order: the names -list
// prints are the only ones a //lint:allow directive may carry.
func TestRunListMode(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := "detrand walltime maporder privleak epsconsist epshttp goleak mustclose staleallow"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("-list names = %q, want %q", got, want)
	}
	matchGolden(t, "list.txt", out.Bytes())
}

// matchGolden compares a run's output byte for byte with
// testdata/golden/<name>, the driver's recorded output for that run.
func matchGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from testdata/golden/%s\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestRunBadDir(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{filepath.Join(t.TempDir(), "nope")}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

// TestRunBadFlag: the driver takes -json and -list only; every suite
// always runs over the go command's packages, so the old suite switches,
// the fact cache, the baseline and -tests are usage errors too.
func TestRunBadFlag(t *testing.T) {
	for _, flag := range []string{"-definitely-not-a-flag", "-classic=false", "-flow=false", "-absint", "-perf", "-life", "-cache=dir", "-bench=out.json", "-baseline=base.json", "-tests"} {
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

// TestProjectScoping pins the package scoping of the list the driver
// ships (DESIGN.md §2d, §2e): in a module named verro, detrand and
// maporder fire in every package; walltime skips internal/obs and
// internal/par but not internal/core; and printing raw data is a privleak
// finding under cmd/ and internal/server only.
func TestProjectScoping(t *testing.T) {
	const clock = `package %s

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
	const dump = `package %s

import (
	"fmt"

	"verro/internal/motio"
)

func Dump() {
	tracks, _ := motio.ReadCSV("gt.csv")
	fmt.Println(tracks)
}
`
	files := map[string]string{
		"go.mod":                  "module verro\n\ngo 1.22\n",
		"internal/motio/motio.go": "package motio\n\nfunc ReadCSV(path string) ([]float64, error) { return nil, nil }\n",
	}
	for _, name := range []string{"obs", "par", "core"} {
		files["internal/"+name+"/"+name+".go"] = fmt.Sprintf(clock, name)
	}
	for _, dir := range []string{"internal/core", "internal/server", "cmd/tool"} {
		files[dir+"/dump.go"] = fmt.Sprintf(dump, filepath.Base(dir))
	}
	prog, err := lint.Load(filepath.Join(writeTree(t, files), "..."))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range lint.Run(prog, analyzers()...) {
		dir := filepath.Base(filepath.Dir(d.Pos.Filename))
		got = append(got, d.Analyzer+":"+dir+"/"+filepath.Base(d.Pos.Filename))
	}
	sort.Strings(got)
	want := "detrand:core/core.go detrand:obs/obs.go detrand:par/par.go " +
		"maporder:core/core.go maporder:obs/obs.go maporder:par/par.go " +
		"privleak:server/dump.go privleak:tool/dump.go " +
		"walltime:core/core.go"
	if strings.Join(got, " ") != want {
		t.Errorf("findings = %q\nwant       %q", strings.Join(got, " "), want)
	}
}

// TestAnalyzerNamesUniqueAcrossSuites: allow directives key on analyzer
// names alone, so two suites sharing a name would let one analyzer's
// directive silence the other's findings.
func TestAnalyzerNamesUniqueAcrossSuites(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range analyzers() {
		if seen[a.Name] {
			t.Errorf("analyzer name %q used twice", a.Name)
		}
		seen[a.Name] = true
	}
}

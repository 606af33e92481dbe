package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The meta-tests assert the fixture runner itself fails when a fixture's
// want comments drift from the diagnostics — otherwise an analyzer test
// could silently assert nothing.

// writeFixture writes src as the one file of a fresh module, since the go
// command resolves every package the loader reads.
func writeFixture(t *testing.T, src string) string {
	t.Helper()
	return writeTree(t, map[string]string{"go.mod": "module fixture\n\ngo 1.22\n", "f.go": src})
}

// writeTree writes files, named by slash paths, into a fresh directory.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, data := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestFixtureMissingWantFails(t *testing.T) {
	// A diagnostic fires but no want comment claims it.
	dir := writeFixture(t, `package fixture

import "math/rand"

func draw() int {
	return rand.Intn(2)
}
`)
	problems, err := CheckFixture(dir, NewDetRand())
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "unexpected diagnostic") {
		t.Fatalf("want one 'unexpected diagnostic' problem, got %q", problems)
	}
}

func TestFixtureExtraWantFails(t *testing.T) {
	// A want comment claims a diagnostic that never fires.
	dir := writeFixture(t, `package fixture

func eq(a, b int) bool {
	return a == b // want "global math/rand"
}
`)
	problems, err := CheckFixture(dir, NewDetRand())
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "no diagnostic matching") {
		t.Fatalf("want one 'no diagnostic matching' problem, got %q", problems)
	}
}

func TestFixtureWrongPatternFails(t *testing.T) {
	// A want comment exists on the right line but its pattern does not
	// match the message: both an unexpected diagnostic and an unmatched
	// want must be reported.
	dir := writeFixture(t, `package fixture

import "math/rand"

func draw() int {
	return rand.Intn(2) // want "something else entirely"
}
`)
	problems, err := CheckFixture(dir, NewDetRand())
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 2 {
		t.Fatalf("want 2 problems, got %q", problems)
	}
}

func TestFixtureExactMatchPasses(t *testing.T) {
	dir := writeFixture(t, `package fixture

import "math/rand"

func draw() int {
	return rand.Intn(2) // want "global math/rand"
}

func allowed() int {
	return rand.Intn(2) //lint:allow detrand meta-test sentinel
}
`)
	problems, err := CheckFixture(dir, NewDetRand())
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("want clean fixture, got %q", problems)
	}
}

// TestFixtureMetaFailClosed proves the fixture runner fails closed:
// withholding every analyzer leaves each want comment unmatched, so a
// fixture whose expectations could be satisfied by nothing would fail
// loudly rather than silently passing.
func TestFixtureMetaFailClosed(t *testing.T) {
	for _, dir := range []string{
		"testdata/detrand",
		"testdata/walltime",
		"testdata/maporder",
	} {
		problems, err := CheckFixture(dir)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		if len(problems) == 0 {
			t.Errorf("%s: no unmatched wants with analyzers withheld; fixture asserts nothing", dir)
		}
		for _, p := range problems {
			if !strings.Contains(p, "no diagnostic matching") {
				t.Errorf("%s: unexpected problem kind without analyzers: %s", dir, p)
			}
		}
	}
}

func TestFixtureBadWantPattern(t *testing.T) {
	// An unparseable want regexp is a fixture authoring error, not a pass.
	dir := writeFixture(t, `package fixture

import "math/rand"

func draw() int {
	return rand.Intn(2) // want "(["
}
`)
	if _, err := CheckFixture(dir, NewDetRand()); err == nil {
		t.Fatal("bad want pattern should fail the fixture load")
	}
}

func TestFixtureWantWithoutQuote(t *testing.T) {
	dir := writeFixture(t, `package fixture

import "math/rand"

func draw() int {
	return rand.Intn(2) // want global math/rand
}
`)
	if _, err := CheckFixture(dir, NewDetRand()); err == nil {
		t.Fatal("want comment without quoted pattern should fail the fixture load")
	}
}

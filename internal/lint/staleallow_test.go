package lint

import (
	"strings"
	"testing"
)

// loadAndRun loads the fixture directory and runs the detrand analyzer
// through the program's allow index, the setup every StaleAllows test
// needs: hits recorded, stale directives left over.
func loadAndRun(t *testing.T, src string) *AllowIndex {
	t.Helper()
	prog, err := Load(writeFixture(t, src))
	if err != nil {
		t.Fatal(err)
	}
	Run(prog, NewDetRand())
	return prog.allow
}

func TestStaleAllowReported(t *testing.T) {
	allow := loadAndRun(t, `package fixture

import "math/rand"

func live() int {
	return rand.Intn(2) //lint:allow detrand still suppressing
}

func stale(a, b int) bool {
	return a == b //lint:allow detrand nothing here draws from math/rand
}
`)
	diags := allow.StaleAllows(map[string]bool{"detrand": true})
	if len(diags) != 1 {
		t.Fatalf("want exactly the stale directive reported, got %v", diags)
	}
	d := diags[0]
	if d.Analyzer != StaleAllowsName {
		t.Errorf("analyzer = %q, want %q", d.Analyzer, StaleAllowsName)
	}
	if !strings.Contains(d.Message, "//lint:allow detrand no longer suppresses") {
		t.Errorf("message = %q", d.Message)
	}
	if d.Pos.Line != 10 {
		t.Errorf("reported line %d, want 10 (the stale directive)", d.Pos.Line)
	}
}

// TestStaleAllowNextLineScope: a directive above its statement is a hit
// via the line-below cell and must not be reported.
func TestStaleAllowNextLineScope(t *testing.T) {
	allow := loadAndRun(t, `package fixture

import "math/rand"

func above() int {
	//lint:allow detrand comment-above style
	return rand.Intn(2)
}
`)
	if diags := allow.StaleAllows(map[string]bool{"detrand": true}); len(diags) != 0 {
		t.Fatalf("comment-above directive wrongly stale: %v", diags)
	}
}

// TestStaleAllowOutsideRanSkipped: a subset run must not judge another
// suite's directives.
func TestStaleAllowOutsideRanSkipped(t *testing.T) {
	allow := loadAndRun(t, `package fixture

func f(a, b int) bool {
	return a == b //lint:allow privleak different suite, not run here
}
`)
	if diags := allow.StaleAllows(map[string]bool{"detrand": true}); len(diags) != 0 {
		t.Fatalf("directive outside the ran set wrongly reported: %v", diags)
	}
	if diags := allow.StaleAllows(map[string]bool{"detrand": true, "privleak": true}); len(diags) != 1 {
		t.Fatalf("directive inside the ran set not reported: %v", diags)
	}
}

// TestStaleAllowSelfSuppression: //lint:allow staleallow on the directive
// line keeps a deliberately speculative allow.
func TestStaleAllowSelfSuppression(t *testing.T) {
	allow := loadAndRun(t, `package fixture

func f(a, b int) bool {
	return a == b //lint:allow detrand,staleallow kept for a pending sampler refactor
}
`)
	if diags := allow.StaleAllows(map[string]bool{"detrand": true}); len(diags) != 0 {
		t.Fatalf("staleallow self-suppression ignored: %v", diags)
	}
}

// TestStaleAllowMultiName: one comma-list directive is judged per
// analyzer — the hitting name survives, the idle one is stale.
func TestStaleAllowMultiName(t *testing.T) {
	allow := loadAndRun(t, `package fixture

import "math/rand"

func f() int {
	return rand.Intn(2) //lint:allow detrand,walltime only detrand fires here
}
`)
	diags := allow.StaleAllows(map[string]bool{"detrand": true, "walltime": true})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "//lint:allow walltime") {
		t.Fatalf("want exactly the walltime half stale, got %v", diags)
	}
}

func TestStaleAllowNilIndex(t *testing.T) {
	var idx *AllowIndex
	if diags := idx.StaleAllows(map[string]bool{"detrand": true}); diags != nil {
		t.Fatalf("nil index must report nothing, got %v", diags)
	}
}

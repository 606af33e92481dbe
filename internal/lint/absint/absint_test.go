package absint

import (
	"testing"
	"time"

	"verro/internal/lint"
)

func TestProbRangeFixture(t *testing.T) {
	RunFixture(t, []string{"testdata/probrange"}, NewProbRange())
}

func TestDivZeroFixture(t *testing.T) {
	RunFixture(t, []string{"testdata/divzero"}, NewDivZero())
}

func TestIdxBoundFixture(t *testing.T) {
	RunFixture(t, []string{"testdata/idxbound"}, NewIdxBound())
}

// TestProjectSuiteOnFixtures runs the full configured suite over every
// fixture at once: the project Match functions must admit the fixture
// packages, and analyzers must not trip over each other's fixtures (a
// fixture only carries want comments for its own analyzer, so a stray
// cross-analyzer finding fails the check... unless it is legitimate, in
// which case the fixture documents it).
func TestProjectSuiteOnFixtures(t *testing.T) {
	for _, dir := range []string{"testdata/widen"} {
		RunFixture(t, []string{dir}, ProjectAnalyzers()...)
	}
}

// TestWideningTerminates is the regression test for fixpoint divergence:
// loops with growing counters must converge via widening. The generous
// deadline only trips if the worklist truly runs away.
func TestWideningTerminates(t *testing.T) {
	done := make(chan []string, 1)
	go func() {
		problems, err := CheckFixture(lint.NewLoader(), []string{"testdata/widen"}, ProjectAnalyzers()...)
		if err != nil {
			t.Errorf("widen fixture: %v", err)
		}
		done <- problems
	}()
	select {
	case problems := <-done:
		for _, p := range problems {
			t.Errorf("widen fixture: %s", p)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("widening did not terminate: fixpoint still running after 60s")
	}
}

// TestAnalyzerNamesDistinct: allow directives key on analyzer names, so
// absint names must not collide with each other (uniqueness across every
// suite is asserted in the driver test, over its single analyzer list).
func TestAnalyzerNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range ProjectAnalyzers() {
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc", a.Name)
		}
	}
}

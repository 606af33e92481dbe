package life_test

import (
	"strings"
	"testing"

	"verro/internal/lint"
	"verro/internal/lint/life"
)

func TestGoLeakFixture(t *testing.T) {
	life.RunFixture(t, []string{"testdata/goleak"}, life.NewGoLeak())
}

func TestMustCloseFixture(t *testing.T) {
	life.RunFixture(t, []string{"testdata/mustclose"}, life.NewMustClose())
}

// TestFixtureMetaFailClosed proves the fixture runner fails closed:
// withholding the analyzer leaves every want comment unmatched, so a
// fixture whose expectations could be satisfied by nothing would fail
// loudly rather than silently passing.
func TestFixtureMetaFailClosed(t *testing.T) {
	for _, dir := range []string{
		"testdata/goleak",
		"testdata/mustclose",
	} {
		problems, err := life.CheckFixture(lint.NewLoader(), []string{dir})
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

// TestSummaryPropagation pins the whole-program mechanism: goleak's
// verdict on `go spin()` exists only because spin's converged summary
// diverges; the summary table must say so.
func TestSummaryPropagation(t *testing.T) {
	l := lint.NewLoader()
	pkg, err := l.Load("testdata/goleak")
	if err != nil {
		t.Fatal(err)
	}
	sums := life.Summaries([]*lint.Package{pkg}, life.ProjectConfig())
	var spin string
	for name := range sums {
		if strings.HasSuffix(name, ".spin") {
			spin = name
		}
	}
	if spin == "" {
		t.Fatalf("no summary for spin; have %d summaries", len(sums))
	}
	if !sums[spin].Diverges {
		t.Errorf("summary for %s: want Diverges", spin)
	}
}

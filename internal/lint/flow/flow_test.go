package flow_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"verro/internal/lint"
	"verro/internal/lint/flow"
)

func TestPrivLeakFixture(t *testing.T) {
	lint.RunFixture(t, "testdata/privleak", flow.NewPrivLeak())
}

func TestEpsConsistFixture(t *testing.T) {
	lint.RunFixture(t, "testdata/epsconsist", flow.NewEpsConsist())
}

// TestEpsConsistTypeErrorFixture: ε-arithmetic whose operands fail to
// type-check (an unknown config field, an undeclared function) yields no
// diagnostic and no panic. It is the one fixture that holds type errors,
// so it reads the program the loader returns beside its error.
func TestEpsConsistTypeErrorFixture(t *testing.T) {
	prog, err := lint.Load("testdata/epsconsisttypeerr")
	if prog == nil || len(prog.Pkgs) != 1 || err == nil || !strings.Contains(err.Error(), "NoSuchField") {
		t.Fatalf("load = %v, %v; want the package and its type errors", prog, err)
	}
	problems, err := lint.CheckDiagnostics(prog, lint.Run(prog, flow.NewEpsConsist()))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestSrvLeakFixture exercises privleak's service-edge rules (§2i). The
// fixture package is passed as an fmt-sink prefix, standing in for
// internal/server's published SSE stream.
func TestSrvLeakFixture(t *testing.T) {
	lint.RunFixture(t, "testdata/srvleak",
		flow.NewPrivLeak("verro/internal/lint/flow/testdata/srvleak"))
}

func TestEpsHTTPFixture(t *testing.T) {
	lint.RunFixture(t, "testdata/epshttp", flow.NewEpsHTTP())
}

func TestChainFixture(t *testing.T) {
	lint.RunFixture(t, "testdata/chain/...", flow.NewPrivLeak())
}

// TestSummaryPropagationTwoHops pins the mechanism behind the chain
// fixture: the diagnostic at the sink exists only because srcBit taint
// born in inner survived translation through two function summaries
// (inner.Raw → mid.Pass → chain.Leak). Dropping inner from the program
// turns mid.Pass's callee into an unknown, which propagates only the clean
// handle's taint — the diagnostic must disappear.
func TestSummaryPropagationTwoHops(t *testing.T) {
	load := func(dirs ...string) *lint.Program {
		prog, err := lint.Load(dirs...)
		if err != nil {
			t.Fatalf("load %v: %v", dirs, err)
		}
		return prog
	}

	full := lint.Run(load("testdata/chain", "testdata/chain/inner", "testdata/chain/mid"),
		flow.NewPrivLeak())
	if len(full) != 1 {
		t.Fatalf("full program: want exactly 1 diagnostic, got %v", full)
	}
	if !strings.HasSuffix(full[0].Pos.Filename, "chain.go") ||
		!strings.Contains(full[0].Message, "track CSV file") {
		t.Fatalf("full program: wrong diagnostic: %v", full[0])
	}

	partial := lint.Run(load("testdata/chain", "testdata/chain/mid"), flow.NewPrivLeak())
	if len(partial) != 0 {
		t.Fatalf("without the source hop there is nothing to report, got %v", partial)
	}
}

// TestFixtureMetaStaleWant proves the fixture runner fails closed for flow
// analyzers: a want comment no diagnostic matches and a diagnostic no want
// covers are both problems. The toy config keeps the test independent of
// the project policy tables.
func TestFixtureMetaStaleWant(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fixture\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := `package fixture

func Source() int { return 0 }

func Sink(x int) {}

func flagged() {
	Sink(Source()) // want "tainted value reaches the sink"
}

func stale() int {
	return 1 // want "a diagnostic that does not exist"
}

func unannotated() {
	Sink(Source())
}
`
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	toy := flow.NewAnalyzer("toyflow", "toy policy for the meta-test", &flow.TaintConfig{
		SourceCalls: map[string]bool{"fixture.Source": true},
		Sinks:       map[string]*flow.Sink{"fixture.Sink": {Operands: []int{0}, What: "the sink"}},
		Report:      "tainted value reaches %s",
	})
	problems, err := lint.CheckFixture(dir, toy)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 2 {
		t.Fatalf("want exactly two problems (stale want + unannotated diagnostic), got %q", problems)
	}
	joined := strings.Join(problems, "\n")
	if !strings.Contains(joined, "no diagnostic matching") {
		t.Errorf("stale want not reported: %q", problems)
	}
	if !strings.Contains(joined, "unexpected diagnostic") {
		t.Errorf("unannotated diagnostic not reported: %q", problems)
	}
}

// TestProjectAnalyzersListed pins the name and doc line each flow
// constructor gives its analyzer. The list cmd/verrolint ships, in order
// and with privleak's print scoping, is pinned by that command's
// TestRunListMode and TestProjectScoping.
func TestProjectAnalyzersListed(t *testing.T) {
	var names []string
	for _, a := range []*lint.Analyzer{flow.NewPrivLeak(), flow.NewEpsConsist(), flow.NewEpsHTTP()} {
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc line", a.Name)
		}
		names = append(names, a.Name)
	}
	want := []string{"privleak", "epsconsist", "epshttp"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("suite = %v, want %v", names, want)
	}
}

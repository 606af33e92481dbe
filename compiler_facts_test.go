package verro

// The compiler-facts gate for the per-frame hot path. The kernels are
// only as fast as the code the compiler emits for them, so this test asks
// the compiler directly: it builds the hot packages with
// -gcflags='-m -d=ssa/check_bce', counts the bounds checks the compiler
// keeps and the heap sites it reports (escapes and moves to the heap) per
// hot function, each position counted once, and compares the counts with
// testdata/compiler_facts.txt. Any change — a new kept check in img.SSD,
// a closure that starts escaping in a par.MapPool holder, or a removed
// one — fails with the functions that changed and the full new list, which
// replaces the file when the change is intended.
//
// The facts belong to one toolchain and target, named in the file's
// header; on any other the test skips and names the one it needs.

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const compilerFactsFile = "testdata/compiler_facts.txt"

// hotFactPkgs are the per-frame kernel packages: every function in them
// is hot.
var hotFactPkgs = []string{"img", "hog", "inpaint", "blur", "keyframe"}

// hotFactFuncs are the hot functions outside the kernel packages: the
// holders of the per-frame internal/par closures and Phase II's per-frame
// render and geometry cores.
var hotFactFuncs = map[string][]string{
	"detect": {"(*detect.HOGSVM).Detect", "detect.MedianBackground"},
	"track":  {"(*track.Runner).Window"},
	"core":   {"(*core.phase2Plan).renderRange", "(*core.phase2Plan).geometryRange"},
}

// compilerDiag matches one compiler diagnostic line: file:line:col: msg.
var compilerDiag = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

func TestHotPathCompilerFacts(t *testing.T) {
	data, err := os.ReadFile(compilerFactsFile)
	if err != nil {
		t.Fatal(err)
	}
	header, want, _ := strings.Cut(string(data), "\n\n")
	var recorded string
	for _, line := range strings.Split(header, "\n") {
		if v, ok := strings.CutPrefix(line, "# toolchain: "); ok {
			recorded = v
		}
	}
	if toolchain := runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH; toolchain != recorded {
		t.Skipf("%s records the facts of %s; this is %s", compilerFactsFile, recorded, toolchain)
	}

	pkgs := append([]string(nil), hotFactPkgs...)
	for pkg := range hotFactFuncs {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	args := []string{"build", "-gcflags=-m -d=ssa/check_bce"}
	for _, pkg := range pkgs {
		args = append(args, "verro/internal/"+pkg)
	}
	cmd := exec.Command("go", args...)
	// A caller's GOFLAGS (-trimpath, extra -gcflags) would change the output.
	cmd.Env = append(os.Environ(), "GOFLAGS=")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	got := hotFacts(t, out)
	if got == want {
		return
	}
	t.Errorf("hot-path compiler facts changed (function: kept bounds checks, heap sites):\n%s\n"+
		"If the change is intended, replace everything after the header of %s with:\n\n%s",
		factsDiff(want, got), compilerFactsFile, got)
}

// hotFacts folds the compiler output into one line per hot function with
// a kept bounds check or a heap site, sorted by name. Positions outside
// hot functions are dropped, including inlined stdlib and helper-package
// code, which the compiler reports at its own source position.
func hotFacts(t *testing.T, out []byte) string {
	type fact struct{ bounds, heap int }
	facts := map[string]*fact{}
	seen := map[string]bool{}
	funcs := map[string]*fileFuncs{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		m := compilerDiag.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		file, msg := filepath.ToSlash(m[1]), m[4]
		var kind string
		switch {
		case strings.HasPrefix(msg, "Found Is"):
			kind = "bounds"
		case strings.HasSuffix(msg, " escapes to heap"), strings.HasPrefix(msg, "moved to heap: "):
			kind = "heap"
		default:
			continue
		}
		pos := kind + " " + m[1] + ":" + m[2] + ":" + m[3]
		if seen[pos] {
			continue
		}
		seen[pos] = true
		pkg := strings.TrimPrefix(filepath.Dir(file), "internal/")
		if filepath.Dir(file) != "internal/"+pkg || !hotPkg(pkg) {
			continue
		}
		ff := funcs[file]
		if ff == nil {
			ff = parseFuncs(t, file, pkg)
			funcs[file] = ff
		}
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		name := ff.at(line, col)
		if name == "" || !isHot(pkg, name) {
			continue
		}
		f := facts[name]
		if f == nil {
			f = &fact{}
			facts[name] = f
		}
		if kind == "bounds" {
			f.bounds++
		} else {
			f.heap++
		}
	}
	names := make([]string, 0, len(facts))
	for name := range facts {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s bounds=%d heap=%d\n", name, facts[name].bounds, facts[name].heap)
	}
	return b.String()
}

// hotPkg reports whether the package holds any hot function.
func hotPkg(pkg string) bool {
	return slices.Contains(hotFactPkgs, pkg) || hotFactFuncs[pkg] != nil
}

func isHot(pkg, name string) bool {
	return slices.Contains(hotFactPkgs, pkg) || slices.Contains(hotFactFuncs[pkg], name)
}

// fileFuncs locates the function declarations of one source file.
type fileFuncs struct {
	fset  *token.FileSet
	decls []*ast.FuncDecl
	pkg   string
}

func parseFuncs(t *testing.T, file, pkg string) *fileFuncs {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	ff := &fileFuncs{fset: fset, pkg: pkg}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			ff.decls = append(ff.decls, fd)
		}
	}
	return ff
}

// at names the function declared around line:col ("img.SSD",
// "(*img.Image).Gradients"), closures included in their enclosing
// function, or "" outside every function.
func (ff *fileFuncs) at(line, col int) string {
	for _, fd := range ff.decls {
		start, end := ff.fset.Position(fd.Pos()), ff.fset.Position(fd.End())
		if (line > start.Line || line == start.Line && col >= start.Column) &&
			(line < end.Line || line == end.Line && col < end.Column) {
			return funcName(ff.pkg, fd)
		}
	}
	return ""
}

func funcName(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg + "." + fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	star := ""
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = "*", s.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	return fmt.Sprintf("(%s%s.%s).%s", star, pkg, typ.(*ast.Ident).Name, fd.Name.Name)
}

// factsDiff lists the functions whose line differs between two fact
// lists.
func factsDiff(want, got string) string {
	index := func(s string) map[string]string {
		m := map[string]string{}
		for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
			if name, counts, ok := strings.Cut(line, " "); ok {
				m[name] = counts
			}
		}
		return m
	}
	w, g := index(want), index(got)
	var names []string
	for name := range w {
		if g[name] != w[name] {
			names = append(names, name)
		}
	}
	for name := range g {
		if _, ok := w[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "  %s: %s -> %s\n", name, orNone(w[name]), orNone(g[name]))
	}
	return b.String()
}

func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}

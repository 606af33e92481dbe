package lint

import (
	"go/ast"
	"strings"
)

// wallClockFuncs are the time package entry points that read the wall (or
// monotonic) clock. time.Sleep is deliberately absent: sleeping does not
// leak the clock into computed values.
var wallClockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// NewWallTime builds the walltime analyzer: sanitized output must be a pure
// function of (input, seed), so the wall clock may only be read inside the
// observability layer (span timing, pool gauges), never inside pipeline
// logic where it could leak into published values. exempt lists the package
// paths (exact or prefix) where clock reads are the package's purpose;
// individual span-timing call sites elsewhere carry //lint:allow walltime.
func NewWallTime(exempt ...string) *Analyzer {
	a := &Analyzer{
		Name: "walltime",
		Doc:  "forbid wall-clock reads outside the observability layer and annotated span-timing sites",
	}
	exempted := func(pkgPath string) bool {
		for _, e := range exempt {
			if pkgPath == e || strings.HasPrefix(pkgPath, e+"/") {
				return true
			}
		}
		return false
	}
	a.Run = func(pass *Pass) {
		for _, pkg := range pass.Pkgs {
			if exempted(pkg.Path) {
				continue
			}
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if path, name, ok := pkg.CalleeOf(call); ok && path == "time" && wallClockFuncs[name] {
						pass.Reportf(call.Pos(),
							"time.%s reads the wall clock outside the observability layer; use obs spans or annotate the timing site", name)
					}
					return true
				})
			}
		}
	}
	return a
}

package lint

import (
	"go/ast"
)

// randPath is the package whose global generator the analyzer polices.
const randPath = "math/rand"

// detrandConstructors are the math/rand functions that build an explicit
// generator rather than consuming the global one; calling them is the
// sanctioned pattern (rand.New(rand.NewSource(seed))).
var detrandConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// NewDetRand builds the detrand analyzer: seeded runs must be bit-identical,
// so nothing may draw from math/rand's process-global source (its state is
// shared and unseeded), and no generator may be seeded from the wall clock.
// A seeded *rand.Rand must be threaded through the call graph instead —
// the convention every pipeline stage already follows.
func NewDetRand() *Analyzer {
	a := &Analyzer{
		Name: "detrand",
		Doc:  "forbid the global math/rand source and wall-clock seeding; thread a seeded *rand.Rand",
	}
	a.Run = func(pass *Pass) {
		for _, pkg := range pass.Pkgs {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					path, name, ok := pkg.CalleeOf(call)
					if !ok || path != randPath {
						return true
					}
					if !detrandConstructors[name] {
						pass.Reportf(call.Pos(),
							"call to global math/rand.%s draws from the shared unseeded source; thread a seeded *rand.Rand", name)
						return true
					}
					// rand.NewSource(time.Now().UnixNano()): a constructor is
					// fine, a wall-clock seed is not. Only NewSource takes the
					// seed, so checking it alone avoids double-reporting the
					// enclosing rand.New call.
					if name == "NewSource" {
						for _, arg := range call.Args {
							if wall := findWallClock(pkg, arg); wall != nil {
								pass.Reportf(wall.Pos(),
									"math/rand.%s seeded from the wall clock; derive the seed from configuration", name)
							}
						}
					}
					return true
				})
			}
		}
	}
	return a
}

// findWallClock returns the first time.Now/time.Since call nested in expr.
func findWallClock(pkg *Package, expr ast.Expr) ast.Expr {
	var found ast.Expr
	ast.Inspect(expr, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if path, name, ok := pkg.CalleeOf(call); ok && path == "time" && wallClockFuncs[name] {
			found = call
			return false
		}
		return true
	})
	return found
}

// Package epsconsisttypeerr is an epsconsist fixture whose ε-arithmetic
// operands fail to type-check. The loader tolerates type errors and the
// analyzers work from whatever type information survives, so the
// arithmetic check must treat an operand without a type as non-numeric
// rather than dereference it. It expects no diagnostics.
package epsconsisttypeerr

import "verro/internal/core"

// A selector that names no field of the config has no type.
func noSuchField() float64 {
	cfg := core.DefaultPhase1Config()
	return cfg.NoSuchField * 2
}

// A call of an undeclared function has no type.
func noSuchFunc() float64 {
	return core.NoSuchFunc() * 2
}

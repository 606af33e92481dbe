package absint

import (
	"go/ast"
	"go/token"
	"math"
	"strings"
)

// ProjectAnalyzers returns the interval suite configured for this
// repository: probability and ε range proofs everywhere, division checks
// everywhere, index-bound checks in the hot CV kernels (plus the absint
// fixtures, which exercise the analyzer directly).
func ProjectAnalyzers() []*Analyzer {
	kernels := []string{
		"verro/internal/img",
		"verro/internal/hog",
		"verro/internal/inpaint",
		"verro/internal/blur",
	}
	idx := NewIdxBound()
	idx.Match = func(pkgPath string) bool {
		for _, k := range kernels {
			if pkgPath == k || strings.HasPrefix(pkgPath, k+"/") {
				return true
			}
		}
		return strings.Contains(pkgPath, "absint/testdata")
	}
	return []*Analyzer{NewProbRange(), NewDivZero(), idx}
}

// probSlot describes one numeric parameter of a privacy primitive that
// must stay within a proved range.
type probSlot struct {
	arg   int
	label string
	// kind is "prob" ([0,1]) or "eps" (≥ 0).
	kind string
}

// probSlots maps normalized callee names to their constrained argument
// slots. Receivers are not counted: arg 0 is the first ordinary argument.
var probSlots = map[string][]probSlot{
	"verro/internal/ldp.ClassicRR":        {{1, "eps", "eps"}},
	"verro/internal/ldp.RAPPORFlip":       {{1, "f", "prob"}},
	"verro/internal/ldp.Epsilon":          {{1, "f", "prob"}},
	"verro/internal/ldp.FlipProbability":  {{1, "eps", "eps"}},
	"verro/internal/ldp.KeepProbability":  {{0, "eps", "eps"}},
	"verro/internal/ldp.LaplaceMechanism": {{2, "eps", "eps"}},
	"verro/internal/ldp.NoisyCounts":      {{2, "eps", "eps"}},
}

// NewProbRange builds the probrange analyzer: every value flowing into a
// probability slot of the ldp primitives — and every value compared
// against rng.Float64() — must be provably inside [0, 1], and every ε
// must be provably nonnegative. Findings are evidence-based: an interval
// that is simply unknown (top of its type) stays silent; a finite bound
// outside the legal range is reported.
func NewProbRange() *Analyzer {
	a := &Analyzer{
		Name: "probrange",
		Doc:  "probability and ε arguments must be provably in range ([0,1] and ≥ 0)",
	}
	a.hooks = func(rc *reportCtx) hookFns {
		return hookFns{
			call: func(call *ast.CallExpr, callee string, args []Interval) {
				slots, ok := probSlots[callee]
				if !ok {
					return
				}
				short := callee[strings.LastIndex(callee, ".")+1:]
				for _, s := range slots {
					if s.arg >= len(args) || s.arg >= len(call.Args) {
						continue
					}
					iv := args[s.arg]
					pos := call.Args[s.arg].Pos()
					switch s.kind {
					case "prob":
						checkProb01(rc, pos, iv, s.label+" argument to "+short)
					case "eps":
						checkEpsNonneg(rc, pos, iv, s.label+" argument to "+short)
					}
				}
			},
			probCmp: func(pos token.Pos, prob Interval) {
				checkProb01(rc, pos, prob, "value compared against rand.Float64()")
			},
		}
	}
	return a
}

// checkProb01 reports what the interval proves about leaving [0, 1].
func checkProb01(rc *reportCtx, pos token.Pos, iv Interval, what string) {
	if iv.IsBottom() || iv.In(0, 1) {
		return
	}
	if iv.Hi < 0 || iv.Lo > 1 {
		rc.reportf(pos, "%s is provably outside [0, 1] (interval %s)", what, iv)
		return
	}
	if (iv.Lo < 0 && !math.IsInf(iv.Lo, -1)) || (iv.Hi > 1 && !math.IsInf(iv.Hi, 1)) {
		rc.reportf(pos, "%s may leave [0, 1] (interval %s)", what, iv)
	}
}

// checkEpsNonneg reports what the interval proves about ε < 0.
func checkEpsNonneg(rc *reportCtx, pos token.Pos, iv Interval, what string) {
	if iv.IsBottom() || iv.Lo >= 0 {
		return
	}
	if iv.Hi < 0 {
		rc.reportf(pos, "%s is provably negative (interval %s)", what, iv)
		return
	}
	if !math.IsInf(iv.Lo, -1) {
		rc.reportf(pos, "%s may be negative (interval %s)", what, iv)
	}
}

// NewDivZero builds the divzero analyzer: every / and % whose divisor
// interval provably is — or with finite evidence may be — zero is
// reported. A divisor about which nothing is known (top of its type)
// stays silent: the analyzer trades completeness for a sweep-clean
// signal, like the other evidence-based checks.
func NewDivZero() *Analyzer {
	a := &Analyzer{
		Name: "divzero",
		Doc:  "division and modulo divisors must provably exclude zero",
	}
	a.hooks = func(rc *reportCtx) hookFns {
		return hookFns{
			div: func(pos token.Pos, divisor Interval, integer bool) {
				if divisor.IsBottom() || !divisor.Contains(0) {
					return
				}
				op := "division"
				if integer {
					op = "integer division or modulo"
				}
				if divisor.Lo == 0 && divisor.Hi == 0 {
					rc.reportf(pos, "%s by a divisor that is provably zero", op)
					return
				}
				if math.IsInf(divisor.Lo, -1) && math.IsInf(divisor.Hi, 1) {
					return // no evidence either way
				}
				rc.reportf(pos, "%s by a divisor whose interval %s contains zero", op, divisor)
			},
		}
	}
	return a
}

// NewIdxBound builds the idxbound analyzer: slice/array/string indexing
// where the index interval escapes [0, len) under the branch-refined
// facts. Definite escapes (index provably negative, or provably at or
// beyond every possible length) always report; possible escapes report
// only on finite evidence so unconstrained indices stay silent.
func NewIdxBound() *Analyzer {
	a := &Analyzer{
		Name: "idxbound",
		Doc:  "kernel indexing must stay provably inside [0, len)",
	}
	a.hooks = func(rc *reportCtx) hookFns {
		return hookFns{
			index: func(pos token.Pos, idx, length Interval) {
				if idx.IsBottom() || length.IsBottom() {
					return
				}
				if idx.Hi < 0 {
					rc.reportf(pos, "index is provably negative (interval %s)", idx)
					return
				}
				if idx.Lo < 0 && !math.IsInf(idx.Lo, -1) {
					rc.reportf(pos, "index may be negative (interval %s)", idx)
					return
				}
				if !math.IsInf(length.Hi, 1) && idx.Lo >= length.Hi {
					rc.reportf(pos, "index is provably out of bounds (interval %s, length %s)", idx, length)
					return
				}
				if !math.IsInf(idx.Hi, 1) && !math.IsInf(length.Hi, 1) && idx.Hi >= length.Hi {
					rc.reportf(pos, "index may exceed the bound (interval %s, length %s)", idx, length)
				}
			},
		}
	}
	return a
}

package absint

import (
	"go/ast"
	"math"
)

// nativeCall models well-known pure functions whose result intervals the
// summary machinery cannot derive (foreign packages) or cannot derive
// precisely (correlated expressions like e/(1+e)). It returns the result
// intervals and whether the callee was recognized; recognized natives
// take precedence over computed summaries.
func nativeCall(callee string, args []Interval, call *ast.CallExpr, ip *interp, st *state) ([]Interval, bool) {
	arg := func(i int) Interval {
		if i < len(args) {
			return args[i]
		}
		return top
	}
	switch callee {
	// --- math ---
	case "math.Abs":
		return []Interval{absIv(arg(0))}, true
	case "math.Exp", "math.Exp2":
		return []Interval{expIv(arg(0), callee == "math.Exp")}, true
	case "math.Log", "math.Log2", "math.Log10", "math.Log1p":
		return []Interval{top}, true
	case "math.Sqrt":
		x := arg(0)
		if x.IsBottom() {
			return []Interval{bottomIv}, true
		}
		// sqrt of a negative is NaN; over the nonnegative part it is
		// monotone.
		lo := math.Max(x.Lo, 0)
		if x.Hi < 0 {
			return []Interval{top}, true // all-NaN: unknown
		}
		return []Interval{mk(math.Sqrt(lo), math.Sqrt(x.Hi))}, true
	case "math.Min":
		return []Interval{minIv(arg(0), arg(1))}, true
	case "math.Max":
		return []Interval{maxIv(arg(0), arg(1))}, true
	case "math.Floor":
		return []Interval{monotone(arg(0), math.Floor)}, true
	case "math.Ceil":
		return []Interval{monotone(arg(0), math.Ceil)}, true
	case "math.Round":
		return []Interval{monotone(arg(0), math.Round)}, true
	case "math.Trunc":
		return []Interval{monotone(arg(0), math.Trunc)}, true
	case "math.Pow":
		return []Interval{powIv(arg(0), arg(1))}, true
	case "math.Hypot":
		return []Interval{{0, inf}}, true
	case "math.Mod":
		return []Interval{arg(0).Rem(arg(1).Join(arg(1).Neg()))}, true
	case "math.Inf":
		return []Interval{top}, true
	case "math.Sin", "math.Cos":
		return []Interval{{-1, 1}}, true
	case "math.Atan":
		return []Interval{{-math.Pi / 2, math.Pi / 2}}, true
	case "math.Atan2":
		return []Interval{{-math.Pi, math.Pi}}, true

	// --- math/rand ---
	case "(math/rand.Rand).Float64", "math/rand.Float64",
		"(math/rand/v2.Rand).Float64", "math/rand/v2.Float64":
		// Float64 is in [0, 1); the closed upper bound 1 is sound.
		return []Interval{{0, 1}}, true
	case "(math/rand.Rand).ExpFloat64", "math/rand.ExpFloat64",
		"(math/rand/v2.Rand).ExpFloat64", "math/rand/v2.ExpFloat64":
		return []Interval{{0, inf}}, true
	case "(math/rand.Rand).NormFloat64", "math/rand.NormFloat64",
		"(math/rand/v2.Rand).NormFloat64", "math/rand/v2.NormFloat64":
		return []Interval{top}, true
	case "(math/rand.Rand).Intn", "math/rand.Intn",
		"(math/rand.Rand).Int31n", "math/rand.Int31n",
		"(math/rand.Rand).Int63n", "math/rand.Int63n",
		"(math/rand/v2.Rand).IntN", "math/rand/v2.IntN":
		n := arg(0)
		return []Interval{{0, math.Max(n.Hi-1, 0)}}, true
	case "(math/rand.Rand).Int", "math/rand.Int",
		"(math/rand.Rand).Int31", "(math/rand.Rand).Int63":
		return []Interval{{0, inf}}, true

	// --- verro/internal/ldp: probability contracts the interval domain
	// cannot derive on its own (correlated subexpressions). Proven by the
	// implementations' own guards and algebra; see DESIGN.md §2f.
	case "verro/internal/ldp.KeepProbability":
		// e/(1+e) for e = exp(ε) ≥ 0 is always within (0, 1).
		return []Interval{{0, 1}}, true
	case "verro/internal/ldp.FlipProbability":
		// 2/(exp(ε/k)+1) with the ε ≥ 0 guard keeps the result in (0, 1];
		// on the error path the value is 0.
		return []Interval{{0, 1}, top}, true
	case "verro/internal/ldp.Epsilon":
		// Guarded to f ∈ (0, 1], so k·ln((2−f)/f) ≥ 0; error path is 0.
		return []Interval{{0, inf}, top}, true
	}
	return nil, false
}

// monotone maps both bounds through a monotone function.
func monotone(x Interval, f func(float64) float64) Interval {
	if x.IsBottom() {
		return bottomIv
	}
	return mk(f(x.Lo), f(x.Hi))
}

// expIv is the contract of math.Exp (base e) / math.Exp2: positive and
// monotone, with exp(−∞) = 0.
func expIv(x Interval, baseE bool) Interval {
	if x.IsBottom() {
		return bottomIv
	}
	f := math.Exp
	if !baseE {
		f = math.Exp2
	}
	lo, hi := 0.0, inf
	if !math.IsInf(x.Lo, -1) {
		lo = f(x.Lo)
	}
	if !math.IsInf(x.Hi, 1) {
		hi = f(x.Hi)
	}
	return mk(lo, hi)
}

// powIv handles the common monotone case x ≥ 0: x^y with both bounds
// known is evaluated directly; anything subtler degrades to the sign
// fact.
func powIv(x, y Interval) Interval {
	if x.IsBottom() || y.IsBottom() {
		return bottomIv
	}
	if x.Lo >= 0 {
		return Interval{0, inf}
	}
	return top
}

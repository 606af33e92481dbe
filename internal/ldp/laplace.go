package ldp

import (
	"fmt"
	"math"
	"math/rand"
)

// Laplace draws one sample from the Laplace distribution with mean 0 and
// scale b using inverse-CDF sampling.
func Laplace(b float64, rng *rand.Rand) float64 {
	// u uniform in the open interval (-0.5, 0.5): at either end
	// log(1-2|u|) is log(0). rng.Float64 lies in [0, 1), so u < 0.5, but a
	// draw of 0, or one small enough to round away, puts u at -0.5; draw
	// again then.
	u := rng.Float64() - 0.5
	for u == -0.5 {
		u = rng.Float64() - 0.5
	}
	return -b * sign(u) * math.Log(1-2*math.Abs(u))
}

// LaplaceMechanism perturbs value with Laplace noise calibrated to
// sensitivity/eps — the generic mechanism the paper applies to per-key-frame
// object counts before the utility optimization (Section 3.3.3, Δ=1).
// Both parameters must be finite: NaN fails every ordered comparison, so
// a range check alone lets it through, and ε = +Inf would add no noise.
func LaplaceMechanism(value, sensitivity, eps float64, rng *rand.Rand) (float64, error) {
	if math.IsNaN(eps) || math.IsInf(eps, 1) || eps <= 0 {
		return 0, fmt.Errorf("%w: epsilon %v must be positive and finite", ErrBudget, eps)
	}
	if math.IsNaN(sensitivity) || math.IsInf(sensitivity, 1) || sensitivity < 0 {
		return 0, fmt.Errorf("%w: sensitivity %v must be nonnegative and finite", ErrBudget, sensitivity)
	}
	return value + Laplace(sensitivity/eps, rng), nil
}

// NoisyCounts perturbs each count with Laplace(Δ/eps) noise and clamps the
// results to be non-negative (counts cannot be negative, and clamping is
// post-processing that preserves differential privacy).
func NoisyCounts(counts []int, sensitivity, eps float64, rng *rand.Rand) ([]float64, error) {
	out := make([]float64, len(counts))
	for i, c := range counts {
		v, err := LaplaceMechanism(float64(c), sensitivity, eps, rng)
		if err != nil {
			return nil, err
		}
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
	return out, nil
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

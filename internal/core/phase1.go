package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"verro/internal/ldp"
)

// Phase1Config tunes the optimal-object-presence phase.
type Phase1Config struct {
	// F is the Equation 4 flip probability in (0, 1]; the per-run privacy
	// level follows as ε = K·ln((2−f)/f) over the K picked key frames.
	F float64
	// Eps, when positive, is a total ε budget that replaces F: RunPhase1
	// picks the key frames first and then randomizes with
	// f = ldp.FlipProbability(K, Eps), so the run spends exactly Eps.
	// Phase1Result.F reports the resolved f. Zero means F applies.
	Eps float64
	// Optimize enables the Section 3.3 key-frame selection (OPT). When
	// false every key frame receives budget — the "dimension reduction
	// only" ablation.
	Optimize bool
	// LaplaceEps, when positive, perturbs the per-key-frame object counts
	// with Laplace(1/LaplaceEps) noise before the optimization
	// (Section 3.3.3). Zero disables the noise.
	LaplaceEps float64
	// MinPicked is the lower cardinality bound of Equation 8; the paper
	// requires at least 2 so Phase II can interpolate. Values below 2 are
	// raised to 2.
	MinPicked int
	// DensityFraction positions the pick threshold relative to the mean
	// per-key-frame object count: frames with more than
	// DensityFraction×mean objects receive budget. 0 means the default
	// 0.5, which retains the large majority of objects while skipping
	// near-empty frames.
	DensityFraction float64
}

// DefaultPhase1Config mirrors the paper's default run: f = 0.1, OPT on.
func DefaultPhase1Config() Phase1Config {
	return Phase1Config{F: 0.1, Optimize: true, MinPicked: 2}
}

// Validate rejects privacy parameters outside their mathematical domain
// before they reach the mechanisms. NaN fails every ordered comparison, so
// each check names it explicitly — a NaN flip probability would otherwise
// pass `F <= 0 || F > 1` and flow ε = K·ln((2−f)/f) all the way into the
// published accounting.
func (c Phase1Config) Validate() error {
	if math.IsNaN(c.F) || c.F <= 0 || c.F > 1 {
		return fmt.Errorf("core: flip probability %v outside (0,1]", c.F)
	}
	if math.IsNaN(c.Eps) || math.IsInf(c.Eps, 0) || c.Eps < 0 {
		return fmt.Errorf("core: epsilon budget %v must be finite and non-negative", c.Eps)
	}
	if math.IsNaN(c.LaplaceEps) || math.IsInf(c.LaplaceEps, 0) || c.LaplaceEps < 0 {
		return fmt.Errorf("core: Laplace epsilon %v must be finite and non-negative", c.LaplaceEps)
	}
	if math.IsNaN(c.DensityFraction) || math.IsInf(c.DensityFraction, 0) || c.DensityFraction < 0 {
		return fmt.Errorf("core: density fraction %v must be finite and non-negative", c.DensityFraction)
	}
	if c.MinPicked < 0 {
		return fmt.Errorf("core: minimum picked key frames %d must be non-negative", c.MinPicked)
	}
	return nil
}

// Phase1Result captures everything Phase I produced.
type Phase1Result struct {
	KeyFrames []int // the ℓ key frame indices (video frame numbers)
	Picked    []int // indices into KeyFrames chosen for budget allocation
	// Reduced are the ℓ-bit presence vectors B'_i.
	Reduced []ldp.BitVector
	// Optimal are the vectors restricted to picked frames (B*_i): entries
	// at unpicked frames are forced to 0.
	Optimal []ldp.BitVector
	// Output are the randomized vectors R_i (still ℓ-bit; entries at
	// unpicked frames are 0).
	Output []ldp.BitVector
	// Epsilon is the achieved ε-Object Indistinguishability level.
	Epsilon float64
	// F echoes the flip probability used.
	F float64
}

// ErrNoKeyFrames is returned when Phase I receives no key frames.
var ErrNoKeyFrames = errors.New("core: no key frames")

// RunPhase1 executes Phase I over the reduced presence vectors.
//
// The key-frame selection objective follows the paper's Equations 7-9:
// picking frame k trades the spurious-presence noise of random response
// against losing the ones_k objects present there. Equation 9 normalizes
// the noise term per frame, and both terms carry the factor f, which
// cannot move the minimizer and is dropped: the per-frame pick cost is
// DensityFraction·density − ones_k (0.5·density − ones_k by default),
// where density is the mean object count over key frames. Frames carrying
// enough presence are worth a budget share, sparse frames are not. The
// pick is therefore exactly independent of f (the paper observes f "only
// slightly affects the optimization"), and it avoids the trivial collapse
// a population-scaled threshold (n·f/2) causes on sparse videos. Under
// the Equation 8 floor 2 ≤ Σx_k ≤ ℓ the cost is separable, so the paper's
// LP relaxation is integral and pickKeyFrames computes its rounded optimum
// directly.
//
// Because the pick does not depend on f, an ε budget resolves after it:
// with cfg.Eps > 0 the K picked frames set f = ldp.FlipProbability(K, Eps)
// before any randomized response is drawn.
func RunPhase1(reduced []ldp.BitVector, keyFrames []int, cfg Phase1Config, rng *rand.Rand) (*Phase1Result, error) {
	ell := len(keyFrames)
	if ell == 0 {
		return nil, ErrNoKeyFrames
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for i, v := range reduced {
		if len(v) != ell {
			return nil, fmt.Errorf("core: vector %d has %d bits, want %d", i, len(v), ell)
		}
	}
	if cfg.MinPicked < 2 {
		cfg.MinPicked = 2
	}
	if cfg.MinPicked > ell {
		cfg.MinPicked = ell
	}

	n := len(reduced)
	counts := KeyFrameCounts(reduced)
	if counts == nil {
		counts = make([]int, ell)
	}

	// Optionally perturb the counts for end-to-end indistinguishability of
	// the optimization statistics (Section 3.3.3, sensitivity Δ = 1).
	noisy := make([]float64, ell)
	for k, c := range counts {
		noisy[k] = float64(c)
	}
	if cfg.LaplaceEps > 0 {
		var err error
		noisy, err = ldp.NoisyCounts(counts, 1, cfg.LaplaceEps, rng)
		if err != nil {
			return nil, err
		}
	}

	// Key-frame selection.
	var picked []int
	if cfg.Optimize {
		frac := cfg.DensityFraction
		if frac <= 0 {
			frac = 0.5
		}
		picked = pickKeyFrames(noisy, frac, cfg.MinPicked)
	} else {
		picked = make([]int, ell)
		for k := range picked {
			picked[k] = k
		}
	}

	// An ε budget becomes f now that K is known. The resolved f is checked
	// like a configured one before the mechanism draws with it.
	if cfg.Eps > 0 {
		f, err := ldp.FlipProbability(len(picked), cfg.Eps)
		if err != nil {
			return nil, fmt.Errorf("core: epsilon budget: %w", err)
		}
		cfg.F = f
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
	}

	// Restrict vectors to the picked frames (B*).
	pickedSet := make([]bool, ell)
	for _, p := range picked {
		pickedSet[p] = true
	}
	optimal := make([]ldp.BitVector, n)
	for i, v := range reduced {
		b := ldp.NewBitVector(ell)
		for k := range v {
			if pickedSet[k] && v[k] {
				b[k] = true
			}
		}
		optimal[i] = b
	}

	// Random response on the picked entries only.
	output := make([]ldp.BitVector, n)
	for i, v := range optimal {
		r := ldp.NewBitVector(ell)
		for k := 0; k < ell; k++ {
			if !pickedSet[k] {
				continue
			}
			bit := ldp.BitVector{v[k]}
			flipped, err := ldp.RAPPORFlip(bit, cfg.F, rng)
			if err != nil {
				return nil, err
			}
			r[k] = flipped[0]
		}
		output[i] = r
	}

	eps, err := ldp.Epsilon(len(picked), cfg.F)
	if err != nil {
		return nil, err
	}
	return &Phase1Result{
		KeyFrames: append([]int(nil), keyFrames...),
		Picked:    picked,
		Reduced:   reduced,
		Optimal:   optimal,
		Output:    output,
		Epsilon:   eps,
		F:         cfg.F,
	}, nil
}

// pickKeyFrames returns the Equation 9 optimum over the per-key-frame
// counts: every frame whose count is more than frac×mean (a negative
// pick cost), then, while fewer than floor frames qualify, the remaining
// frame with the highest count, the earliest among equal counts. Of the
// optimal selections, this is the one with the fewest frames. The
// threshold is rounded before the comparison, so no target fuses the
// product into it.
func pickKeyFrames(counts []float64, frac float64, floor int) []int {
	var density float64
	for _, c := range counts {
		density += c
	}
	density /= float64(len(counts))
	threshold := float64(frac * density)

	in := make([]bool, len(counts))
	k := 0
	for i, c := range counts {
		if c > threshold {
			in[i] = true
			k++
		}
	}
	for ; k < floor; k++ {
		best := -1
		for i, c := range counts {
			if !in[i] && (best < 0 || c > counts[best]) {
				best = i
			}
		}
		in[best] = true
	}

	picked := make([]int, 0, k)
	for i, p := range in {
		if p {
			picked = append(picked, i)
		}
	}
	return picked
}

// NaiveRandomResponse is the Algorithm 1 baseline: classic per-frame
// randomized response over the full m-bit vectors with total budget eps
// split equally — the scheme whose poor utility motivates VERRO.
func NaiveRandomResponse(full []ldp.BitVector, eps float64, rng *rand.Rand) ([]ldp.BitVector, error) {
	out := make([]ldp.BitVector, len(full))
	for i, v := range full {
		r, err := ldp.ClassicRR(v, eps, rng)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

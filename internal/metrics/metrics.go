// Package metrics implements the utility measures of the paper's
// evaluation: normalized trajectory deviation (Figure 5 b/d/f) and
// per-frame object-count series with their errors (Figures 12-13).
package metrics

import (
	"math"

	"verro/internal/assign"
	"verro/internal/interp"
	"verro/internal/motio"
)

// pairDeviation returns the summed per-frame deviation of syn against orig
// over orig's frames (each frame contributes min(1, ‖P−P*‖/‖P‖); absent
// synthetic frames contribute 1) and the number of frames.
func pairDeviation(orig, syn *motio.Track) (total float64, frames int) {
	// Sorted frames, not the Boxes map directly: the float accumulation
	// below must run in a fixed order or the sum's low bits change per run.
	for _, k := range orig.Frames() {
		p, _ := orig.Center(k)
		frames++
		if syn == nil {
			total++
			continue
		}
		q, ok := syn.Center(k)
		if !ok {
			total++
			continue
		}
		denom := p.Norm()
		if denom < 1 {
			denom = 1
		}
		d := p.Dist(q) / denom
		if d > 1 {
			d = 1
		}
		total += d
	}
	return total, frames
}

// TrajectoryDeviation computes the paper's Section 6.2.2 deviation between
// the original tracks and the synthetic tracks:
//
//	(1/N) Σ_i Σ_k ‖P(O_i,F_k) − P(O_i,F*_k)‖ / ‖P(O_i,F_k)‖
//
// summed over frames where the original object is present (absent synthetic
// frames contribute a full deviation of 1) and normalized by the number of
// (object, frame) pairs. Because VERRO deliberately destroys the mapping
// between original and synthetic identities ("any object in the input can
// possibly generate any object in the output"), the original↔synthetic
// pairing is chosen by minimum-cost assignment: the deviation measures
// whether the synthetic video *contains* a trajectory close to each
// original one, which is the utility the paper's noise-cancellation
// discussion appeals to.
func TrajectoryDeviation(original, synthetic *motio.TrackSet) float64 {
	nOrig := original.Tracks
	if len(nOrig) == 0 {
		return 0
	}
	nSyn := synthetic.Tracks

	totalFrames := 0
	for _, orig := range nOrig {
		totalFrames += orig.Len()
	}
	if totalFrames == 0 {
		return 0
	}
	if len(nSyn) == 0 {
		return 1
	}

	cost := make([][]float64, len(nOrig))
	for i, orig := range nOrig {
		cost[i] = make([]float64, len(nSyn))
		for j, syn := range nSyn {
			d, _ := pairDeviation(orig, syn)
			cost[i][j] = d
		}
	}
	rowToCol, _, err := assign.Solve(cost)
	if err != nil {
		// Cannot happen with finite costs; degrade to index matching.
		return IndexedTrajectoryDeviation(original, synthetic)
	}
	var total float64
	for i, orig := range nOrig {
		j := rowToCol[i]
		if j < 0 {
			total += float64(orig.Len()) // unmatched original: full deviation
			continue
		}
		total += cost[i][j]
	}
	return total / float64(totalFrames)
}

// IndexedTrajectoryDeviation is the strict variant of TrajectoryDeviation
// that pairs original track i with synthetic ID i+1 (the internal
// generation order). It is a harsher diagnostic: the adversary-visible
// synthetic identities are meaningless by design, so this measures how far
// each object's replacement wandered rather than scene-level utility.
func IndexedTrajectoryDeviation(original, synthetic *motio.TrackSet) float64 {
	pairs := 0
	var total float64
	for i, orig := range original.Tracks {
		syn := synthetic.ByID(i + 1)
		d, n := pairDeviation(orig, syn)
		total += d
		pairs += n
	}
	if pairs == 0 {
		return 0
	}
	return total / float64(pairs)
}

// SamplesDeviation measures the same deviation against the sparse Phase I
// coordinate assignments (one sample per picked key frame where the
// object's randomized bit was 1) — the "before Phase II" curve of
// Figure 5.
func SamplesDeviation(original *motio.TrackSet, assigned [][]interp.Sample) float64 {
	pairs := 0
	var total float64
	for i, orig := range original.Tracks {
		var samples []interp.Sample
		if i < len(assigned) {
			samples = assigned[i]
		}
		byFrame := map[int]interp.Sample{}
		for _, s := range samples {
			byFrame[s.Frame] = s
		}
		// Sorted frames for the same bit-determinism reason as pairDeviation.
		for _, k := range orig.Frames() {
			p, _ := orig.Center(k)
			pairs++
			s, ok := byFrame[k]
			if !ok {
				total += 1
				continue
			}
			denom := p.Norm()
			if denom < 1 {
				denom = 1
			}
			d := p.Dist(s.Pos) / denom
			if d > 1 {
				d = 1
			}
			total += d
		}
	}
	if pairs == 0 {
		return 0
	}
	return total / float64(pairs)
}

// CountMAE returns the mean absolute error between two per-frame count
// series (padded with zeros to the longer length) — the aggregate-utility
// measure behind Figures 12-13.
func CountMAE(a, b []int) float64 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		av, bv := 0, 0
		if i < len(a) {
			av = a[i]
		}
		if i < len(b) {
			bv = b[i]
		}
		sum += math.Abs(float64(av - bv))
	}
	return sum / float64(n)
}

// CountCorrelation returns the Pearson correlation of two equal-length
// count series; 0 when undefined (constant series).
func CountCorrelation(a, b []int) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	var ma, mb float64
	for i := 0; i < n; i++ {
		ma += float64(a[i])
		mb += float64(b[i])
	}
	ma /= float64(n)
	mb /= float64(n)
	var cov, va, vb float64
	for i := 0; i < n; i++ {
		da := float64(a[i]) - ma
		db := float64(b[i]) - mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

package core

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"verro/internal/ldp"
)

// pickTol is the slack within which two objective values are equal: the
// oracle and the pick sum costs in different orders, so two optima may
// differ in the last bits.
const pickTol = 1e-9

// pickCosts is Equation 9's per-frame cost, frac·mean − count_k.
func pickCosts(counts []float64, frac float64) []float64 {
	var density float64
	for _, c := range counts {
		density += c
	}
	density /= float64(len(counts))
	threshold := float64(frac * density)
	costs := make([]float64, len(counts))
	for k, c := range counts {
		costs[k] = threshold - c
	}
	return costs
}

// bruteForceBinary exhaustively solves
//
//	minimize cᵀx  s.t.  Σ x_k ≥ minOnes,  x_k ∈ {0,1}
//
// for len(costs) ≤ 20 and returns the optimal objective and the fewest ones
// among the optimal selections. sums is scratch of length ≥ 2^len(costs).
// It is the oracle for pickKeyFrames.
func bruteForceBinary(costs []float64, minOnes int, sums []float64) (best float64, fewest int) {
	sums = sums[:1<<len(costs)]
	sums[0] = 0
	for mask := 1; mask < len(sums); mask++ {
		sums[mask] = sums[mask&(mask-1)] + costs[bits.TrailingZeros(uint(mask))]
	}
	best, fewest = math.Inf(1), len(costs)+1
	for mask, s := range sums {
		ones := bits.OnesCount(uint(mask))
		switch {
		case ones < minOnes:
		case s < best-pickTol:
			best, fewest = s, ones
		case s <= best+pickTol && ones < fewest:
			fewest = ones
		}
	}
	return best, fewest
}

// sortedOptimum is the optimum of the same program by sorting, for
// instances too large to enumerate: the cheapest max(minOnes, #negative)
// costs.
func sortedOptimum(costs []float64, minOnes int) (best float64, fewest int) {
	sorted := slices.Clone(costs)
	slices.Sort(sorted)
	fewest = minOnes
	for fewest < len(sorted) && sorted[fewest] < 0 {
		fewest++
	}
	for _, c := range sorted[:fewest] {
		best += c
	}
	return best, fewest
}

// checkPick asserts that pickKeyFrames returns an optimal selection with
// the fewest frames among the optima, taking the earliest of equal counts.
func checkPick(t *testing.T, counts []float64, frac float64, floor int, oracle func([]float64, int) (float64, int)) {
	t.Helper()
	picked := pickKeyFrames(counts, frac, floor)
	costs := pickCosts(counts, frac)
	best, fewest := oracle(costs, floor)
	in := make([]bool, len(counts))
	var obj float64
	for _, k := range picked {
		in[k] = true
		obj += costs[k]
	}
	if len(picked) < floor || math.Abs(obj-best) > pickTol {
		t.Fatalf("counts %v frac %v floor %d: picked %v, objective %v; optimum %v",
			counts, frac, floor, picked, obj, best)
	}
	if len(picked) != fewest {
		t.Fatalf("counts %v frac %v floor %d: picked %v, %d frames; fewest optimal %d",
			counts, frac, floor, picked, len(picked), fewest)
	}
	for i := range counts {
		for j := 0; j < i; j++ {
			if in[i] && !in[j] && counts[j] == counts[i] {
				t.Fatalf("counts %v floor %d: picked %v takes frame %d over the earlier equal frame %d",
					counts, floor, picked, i, j)
			}
		}
	}
}

// TestPickKeyFramesMatchesBruteForce holds the closed-form pick to the
// optimum of Equation 9 under the Equation 8 floor: on every integer count
// vector up to ℓ = 8, on Laplace-noised counts up to ℓ = 14 and on
// paper-sized ℓ = 60 instances.
func TestPickKeyFramesMatchesBruteForce(t *testing.T) {
	sums := make([]float64, 1<<14)
	brute := func(costs []float64, floor int) (float64, int) {
		return bruteForceBinary(costs, floor, sums)
	}

	t.Run("exhaustive", func(t *testing.T) {
		for ell := 1; ell <= 8; ell++ {
			counts := make([]float64, ell)
			for {
				for _, floor := range []int{2, 3} {
					checkPick(t, counts, 0.5, min(floor, ell), brute)
				}
				// Next vector over counts 0–4, odometer order.
				k := 0
				for k < ell && counts[k] == 4 {
					counts[k] = 0
					k++
				}
				if k == ell {
					break
				}
				counts[k]++
			}
		}
	})

	t.Run("laplace", func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 10000; trial++ {
			ell := 1 + rng.Intn(14)
			exact := make([]int, ell)
			for k := range exact {
				exact[k] = rng.Intn(ell + 1)
			}
			eps := []float64{0.1, 0.5, 1, 4}[rng.Intn(4)]
			counts, err := ldp.NoisyCounts(exact, 1, eps, rng)
			if err != nil {
				t.Fatal(err)
			}
			frac := []float64{0.3, 0.5, 0.7, 1.1}[rng.Intn(4)]
			checkPick(t, counts, frac, min(2+rng.Intn(3), ell), brute)
		}
	})

	t.Run("large", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		counts := make([]float64, 60)
		for trial := 0; trial < 100; trial++ {
			for k := range counts {
				counts[k] = float64(rng.Intn(8))
			}
			checkPick(t, counts, 0.5, 2+rng.Intn(59), sortedOptimum)
		}
	})
}

// vectorsFor returns presence vectors whose per-key-frame counts are
// counts: object i is present at key frame k when i < counts[k].
func vectorsFor(counts []int) []ldp.BitVector {
	vecs := make([]ldp.BitVector, slices.Max(counts))
	for i := range vecs {
		vecs[i] = ldp.NewBitVector(len(counts))
		for k, c := range counts {
			vecs[i][k] = i < c
		}
	}
	return vecs
}

func TestRunPhase1PickEdges(t *testing.T) {
	cases := []struct {
		name   string
		counts []int
		floor  int
		want   []int
	}{
		// Mean 4: frame 2 sits exactly at half of it.
		{"at threshold not picked once floor met", []int{4, 4, 2, 6}, 2, []int{0, 1, 3}},
		// Mean 2: only frame 2 is above 1, and frame 0 is at it.
		{"at threshold picked when floor needs it", []int{1, 0, 5}, 2, []int{0, 2}},
		{"floor takes earlier of equal counts", []int{1, 0, 9, 1, 0}, 2, []int{0, 2}},
		{"floor above ell takes every frame", []int{0, 3}, 3, []int{0, 1}},
	}
	for _, c := range cases {
		cfg := Phase1Config{F: 0.1, Optimize: true, MinPicked: c.floor}
		res, err := RunPhase1(vectorsFor(c.counts), make([]int, len(c.counts)), cfg, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !slices.Equal(res.Picked, c.want) {
			t.Errorf("%s: counts %v picked %v, want %v", c.name, c.counts, res.Picked, c.want)
		}
	}
}

// TestRunPhase1PickIndependentOfF pins what an ε budget relies on: the pick
// does not depend on f, so Eps can resolve f from K after it. The Laplace
// noise is drawn before the pick, so it holds with the noise on too.
func TestRunPhase1PickIndependentOfF(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, 12)
	for k := range counts {
		counts[k] = rng.Intn(9)
	}
	reduced := vectorsFor(counts)
	keyFrames := make([]int, len(counts))
	for _, laplace := range []float64{0, 0.5} {
		var first []int
		for _, cfg := range []Phase1Config{{F: 0.1}, {F: 0.5}, {F: 0.9}, {F: 0.1, Eps: 3}} {
			cfg.Optimize, cfg.MinPicked, cfg.LaplaceEps = true, 2, laplace
			res, err := RunPhase1(reduced, keyFrames, cfg, rand.New(rand.NewSource(9)))
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = res.Picked
			} else if !slices.Equal(res.Picked, first) {
				t.Fatalf("LaplaceEps %v: f %v (Eps %v) picked %v, f 0.1 picked %v",
					laplace, res.F, cfg.Eps, res.Picked, first)
			}
		}
	}
}

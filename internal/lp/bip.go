package lp

import (
	"fmt"
	"math"
)

// BIPResult is the outcome of the relax-and-round procedure.
type BIPResult struct {
	X         []int     // rounded binary solution
	Relaxed   []float64 // the fractional LP optimum
	Objective float64   // objective value of the rounded solution
}

// SolveBinary approximately solves
//
//	minimize  cᵀx
//	s.t.      minOnes ≤ Σ x_k ≤ maxOnes,   x_k ∈ {0,1}
//
// — the structure of the paper's key-frame selection problem (Equation 9) —
// by LP relaxation and 0.5-rounding (Section 3.3.2), then repairs the
// cardinality constraints exactly: if rounding produced too few ones, the
// zeros with the largest fractional values (ties broken by smallest cost)
// are promoted; too many, the ones with the smallest fractional values are
// demoted. The repair preserves feasibility, which pure 0.5-rounding does
// not guarantee.
func SolveBinary(costs []float64, minOnes, maxOnes int) (*BIPResult, error) {
	n := len(costs)
	if n == 0 {
		return nil, fmt.Errorf("%w: no variables", ErrMalformed)
	}
	if minOnes < 0 {
		minOnes = 0
	}
	if maxOnes > n {
		maxOnes = n
	}
	if minOnes > maxOnes {
		return nil, fmt.Errorf("%w: minOnes %d > maxOnes %d", ErrMalformed, minOnes, maxOnes)
	}

	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	upper := make([]float64, n)
	for i := range upper {
		upper[i] = 1
	}
	p := &Problem{
		Objective: costs,
		Constraints: []Constraint{
			{Coeffs: ones, Op: GE, RHS: float64(minOnes)},
			{Coeffs: ones, Op: LE, RHS: float64(maxOnes)},
		},
		Upper: upper,
	}
	relaxed, _, err := Solve(p)
	if err != nil {
		return nil, err
	}

	x := make([]int, n)
	count := 0
	for i, v := range relaxed {
		if v >= 0.5 {
			x[i] = 1
			count++
		}
	}

	// Repair cardinality.
	for count < minOnes {
		best := -1
		for i := range x {
			if x[i] == 1 {
				continue
			}
			if best == -1 || better(relaxed[i], costs[i], relaxed[best], costs[best]) {
				best = i
			}
		}
		x[best] = 1
		count++
	}
	for count > maxOnes {
		worst := -1
		for i := range x {
			if x[i] == 0 {
				continue
			}
			if worst == -1 || better(relaxed[worst], costs[worst], relaxed[i], costs[i]) {
				worst = i
			}
		}
		x[worst] = 0
		count--
	}

	var obj float64
	for i := range x {
		obj += float64(x[i]) * costs[i]
	}
	return &BIPResult{X: x, Relaxed: relaxed, Objective: obj}, nil
}

// better reports whether candidate (frac1, cost1) is preferable to
// (frac2, cost2) for promotion to 1: larger fractional value wins, ties go
// to smaller cost.
func better(frac1, cost1, frac2, cost2 float64) bool {
	if math.Abs(frac1-frac2) > 1e-12 {
		return frac1 > frac2
	}
	return cost1 < cost2
}

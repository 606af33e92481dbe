// Package assign implements minimum-cost bipartite assignment (the
// Hungarian algorithm, O(n³) shortest-augmenting-path formulation) used by
// the tracker to match detections to existing tracks, and by VERRO's
// evaluation code to align synthetic objects with originals.
package assign

import (
	"fmt"
	"math"
)

// Solve finds, for the rows×cols cost matrix, a minimum-cost matching that
// covers min(rows, cols) pairs. It returns rowToCol where rowToCol[i] is
// the column matched to row i or -1 when row i is unmatched, plus the total
// cost of the matching. Costs may be any finite float64; +Inf marks a
// forbidden pair.
func Solve(cost [][]float64) (rowToCol []int, total float64, err error) {
	n := len(cost)
	if n == 0 {
		return nil, 0, nil
	}
	m := len(cost[0])
	for i, row := range cost {
		if len(row) != m {
			return nil, 0, fmt.Errorf("assign: row %d has %d cols, want %d", i, len(row), m)
		}
		for j, c := range row {
			if math.IsNaN(c) {
				return nil, 0, fmt.Errorf("assign: NaN cost at (%d,%d)", i, j)
			}
		}
	}
	if m == 0 {
		out := make([]int, n)
		for i := range out {
			out[i] = -1
		}
		return out, 0, nil
	}

	// Transpose when rows > cols so the JV algorithm below (which requires
	// rows ≤ cols) applies; un-transpose the result afterwards.
	transposed := false
	if n > m {
		transposed = true
		t := make([][]float64, m)
		for j := 0; j < m; j++ {
			t[j] = make([]float64, n)
			for i := 0; i < n; i++ {
				t[j][i] = cost[i][j]
			}
		}
		cost = t
		n, m = m, n
	}

	// Jonker-Volgenant style shortest augmenting path with potentials.
	// u, v are dual potentials; p[j] is the row matched to column j (1-based
	// sentinel layout internally).
	const inf = math.MaxFloat64
	u := make([]float64, n+1)
	v := make([]float64, m+1)
	p := make([]int, m+1) // p[j]: row assigned to col j, 0 = none
	way := make([]int, m+1)

	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, m+1)
		used := make([]bool, m+1)
		for j := range minv {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			if delta == inf {
				// Remaining columns unreachable (all +Inf): no perfect
				// matching over finite edges exists.
				return nil, 0, fmt.Errorf("assign: no feasible assignment (forbidden pairs)")
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		// Augment along the path.
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	// Extract matching.
	rowOf := make([]int, n) // rowOf in the (possibly transposed) orientation
	for i := range rowOf {
		rowOf[i] = -1
	}
	for j := 1; j <= m; j++ {
		if p[j] != 0 {
			rowOf[p[j]-1] = j - 1
		}
	}
	for i, j := range rowOf {
		if j >= 0 {
			total += cost[i][j]
		}
	}

	if !transposed {
		return rowOf, total, nil
	}
	// Undo transpose: rowOf maps cols→rows of the original problem.
	out := make([]int, m)
	for i := range out {
		out[i] = -1
	}
	for j, i := range rowOf {
		if i >= 0 {
			out[i] = j
		}
	}
	return out, total, nil
}

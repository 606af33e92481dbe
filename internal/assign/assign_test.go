package assign

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestSolveSquareKnown(t *testing.T) {
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	rowToCol, total, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: r0→c1 (1), r1→c0 (2), r2→c2 (2) = 5.
	if total != 5 {
		t.Fatalf("total = %v, want 5 (assign %v)", total, rowToCol)
	}
	seen := map[int]bool{}
	for _, c := range rowToCol {
		if c < 0 || seen[c] {
			t.Fatalf("invalid matching %v", rowToCol)
		}
		seen[c] = true
	}
}

func TestSolveRectangularWide(t *testing.T) {
	// 2 rows, 4 cols: every row must be matched.
	cost := [][]float64{
		{10, 10, 1, 10},
		{10, 2, 10, 10},
	}
	rowToCol, total, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 3 || rowToCol[0] != 2 || rowToCol[1] != 1 {
		t.Fatalf("assign = %v total = %v", rowToCol, total)
	}
}

func TestSolveRectangularTall(t *testing.T) {
	// 3 rows, 1 col: exactly one row gets the column.
	cost := [][]float64{{5}, {1}, {3}}
	rowToCol, total, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 1 {
		t.Fatalf("total = %v, want 1", total)
	}
	matched := 0
	for i, c := range rowToCol {
		if c == 0 {
			matched++
			if i != 1 {
				t.Fatalf("wrong row matched: %v", rowToCol)
			}
		} else if c != -1 {
			t.Fatalf("unexpected col %d", c)
		}
	}
	if matched != 1 {
		t.Fatalf("matched %d rows, want 1", matched)
	}
}

func TestSolveEmpty(t *testing.T) {
	rowToCol, total, err := Solve(nil)
	if err != nil || rowToCol != nil || total != 0 {
		t.Fatalf("empty: %v %v %v", rowToCol, total, err)
	}
	rowToCol, _, err = Solve([][]float64{{}, {}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rowToCol {
		if c != -1 {
			t.Fatal("zero-col rows must be unmatched")
		}
	}
}

func TestSolveRejectsRagged(t *testing.T) {
	if _, _, err := Solve([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged matrix should fail")
	}
	if _, _, err := Solve([][]float64{{math.NaN()}}); err == nil {
		t.Fatal("NaN cost should fail")
	}
}

func TestSolveForbiddenPairs(t *testing.T) {
	inf := math.Inf(1)
	// Feasible despite forbidden diagonal.
	cost := [][]float64{
		{inf, 1},
		{1, inf},
	}
	rowToCol, total, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 || rowToCol[0] != 1 || rowToCol[1] != 0 {
		t.Fatalf("assign = %v total = %v", rowToCol, total)
	}
	// Entirely forbidden: infeasible.
	if _, _, err := Solve([][]float64{{inf}}); err == nil {
		t.Fatal("all-forbidden should fail")
	}
}

func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		m := 1 + rng.Intn(6)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, m)
			for j := range cost[i] {
				cost[i][j] = math.Floor(rng.Float64()*100) / 10
			}
		}
		_, wantTotal, err := BruteForce(cost)
		if err != nil {
			t.Fatalf("trial %d oracle: %v", trial, err)
		}
		_, gotTotal, err := Solve(cost)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(gotTotal-wantTotal) > 1e-9 {
			t.Fatalf("trial %d: total %v, oracle %v, cost=%v", trial, gotTotal, wantTotal, cost)
		}
	}
}

func TestSolveNegativeCosts(t *testing.T) {
	cost := [][]float64{
		{-5, 0},
		{0, -5},
	}
	_, total, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != -10 {
		t.Fatalf("total = %v, want -10", total)
	}
}

func TestSolveLargeRandomValidMatching(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n, m := 50, 60
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, m)
		for j := range cost[i] {
			cost[i][j] = rng.Float64() * 100
		}
	}
	rowToCol, total, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	var recomputed float64
	for i, c := range rowToCol {
		if c == -1 {
			t.Fatalf("row %d unmatched though cols >= rows", i)
		}
		if seen[c] {
			t.Fatalf("column %d used twice", c)
		}
		seen[c] = true
		recomputed += cost[i][c]
	}
	if math.Abs(recomputed-total) > 1e-6 {
		t.Fatalf("reported total %v != recomputed %v", total, recomputed)
	}
}

// BruteForce exhaustively searches all assignments for matrices with at
// most 9 rows; it is the test oracle for Solve.
func BruteForce(cost [][]float64) ([]int, float64, error) {
	n := len(cost)
	if n == 0 {
		return nil, 0, nil
	}
	m := len(cost[0])
	if n > 9 {
		return nil, 0, fmt.Errorf("assign: brute force limited to 9 rows")
	}
	best := math.Inf(1)
	var bestAssign []int

	cols := make([]int, m)
	for j := range cols {
		cols[j] = j
	}
	cur := make([]int, n)
	for i := range cur {
		cur[i] = -1
	}
	usedCols := make([]bool, m)

	k := min(n, m)
	var rec func(row int, matched int, sum float64)
	rec = func(row, matched int, sum float64) {
		if sum >= best {
			return
		}
		if matched == k {
			best = sum
			bestAssign = append([]int(nil), cur...)
			return
		}
		if row == n {
			return
		}
		// Try every available column for this row (row must be matched when
		// n <= m; otherwise allow skipping).
		for j := 0; j < m; j++ {
			if usedCols[j] || math.IsInf(cost[row][j], 1) {
				continue
			}
			usedCols[j] = true
			cur[row] = j
			rec(row+1, matched+1, sum+cost[row][j])
			cur[row] = -1
			usedCols[j] = false
		}
		if n > m { // rows may remain unmatched only when rows exceed cols
			rec(row+1, matched, sum)
		}
	}
	rec(0, 0, 0)
	if bestAssign == nil {
		return nil, 0, fmt.Errorf("assign: no feasible assignment")
	}
	return bestAssign, best, nil
}

package lp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func approxEq(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestSolveSimpleLE(t *testing.T) {
	// min -x - y  s.t. x + y <= 4, x <= 3, y <= 2  → x=3, y=1? No:
	// maximize x+y with x<=3, y<=2, x+y<=4 → best 4 (e.g. x=2,y=2 or x=3,y=1).
	p := &Problem{
		Objective: []float64{-1, -1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Op: LE, RHS: 4},
		},
		Upper: []float64{3, 2},
	}
	x, obj, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(obj, -4) {
		t.Fatalf("obj = %v, want -4 (x=%v)", obj, x)
	}
	if !approxEq(x[0]+x[1], 4) {
		t.Fatalf("x = %v should sum to 4", x)
	}
}

func TestSolveWithGEAndEQ(t *testing.T) {
	// min x + 2y  s.t. x + y = 3, x >= 1 → x=3, y=0? But x>=1 binds only
	// below; optimum is x=3,y=0 with obj 3.
	p := &Problem{
		Objective: []float64{1, 2},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Op: EQ, RHS: 3},
			{Coeffs: []float64{1, 0}, Op: GE, RHS: 1},
		},
	}
	x, obj, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(obj, 3) || !approxEq(x[0], 3) || !approxEq(x[1], 0) {
		t.Fatalf("x = %v obj = %v, want x=[3 0] obj=3", x, obj)
	}
}

func TestSolveInfeasible(t *testing.T) {
	p := &Problem{
		Objective: []float64{1},
		Constraints: []Constraint{
			{Coeffs: []float64{1}, Op: GE, RHS: 5},
			{Coeffs: []float64{1}, Op: LE, RHS: 2},
		},
	}
	if _, _, err := Solve(p); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestSolveUnbounded(t *testing.T) {
	p := &Problem{
		Objective: []float64{-1},
		Constraints: []Constraint{
			{Coeffs: []float64{1}, Op: GE, RHS: 0},
		},
	}
	if _, _, err := Solve(p); !errors.Is(err, ErrUnbounded) {
		t.Fatalf("want ErrUnbounded, got %v", err)
	}
}

func TestSolveMalformed(t *testing.T) {
	if _, _, err := Solve(&Problem{}); !errors.Is(err, ErrMalformed) {
		t.Fatal("empty objective should be malformed")
	}
	p := &Problem{
		Objective:   []float64{1, 1},
		Constraints: []Constraint{{Coeffs: []float64{1}, Op: LE, RHS: 1}},
	}
	if _, _, err := Solve(p); !errors.Is(err, ErrMalformed) {
		t.Fatal("coeff length mismatch should be malformed")
	}
	p2 := &Problem{Objective: []float64{1}, Upper: []float64{-1}}
	if _, _, err := Solve(p2); !errors.Is(err, ErrMalformed) {
		t.Fatal("negative upper bound should be malformed")
	}
}

func TestSolveNegativeRHS(t *testing.T) {
	// min x s.t. -x <= -2 (i.e. x >= 2).
	p := &Problem{
		Objective: []float64{1},
		Constraints: []Constraint{
			{Coeffs: []float64{-1}, Op: LE, RHS: -2},
		},
	}
	x, obj, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(x[0], 2) || !approxEq(obj, 2) {
		t.Fatalf("x = %v, obj = %v; want 2", x, obj)
	}
}

func TestSolveDegenerate(t *testing.T) {
	// Classic degenerate LP; Bland's rule must not cycle.
	p := &Problem{
		Objective: []float64{-0.75, 150, -0.02, 6},
		Constraints: []Constraint{
			{Coeffs: []float64{0.25, -60, -0.04, 9}, Op: LE, RHS: 0},
			{Coeffs: []float64{0.5, -90, -0.02, 3}, Op: LE, RHS: 0},
			{Coeffs: []float64{0, 0, 1, 0}, Op: LE, RHS: 1},
		},
	}
	x, obj, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(obj, -0.05) {
		t.Fatalf("Beale LP optimum = %v (x=%v), want -0.05", obj, x)
	}
}

// TestSolveEliminatesTinyFactors: a pivot eliminates the entering column
// from every other row, however small the row's entry. The first row's x0
// coefficient (5e-10) is below tol, so the ratio test passes over it, yet
// x0 = 1e6 still uses 5e-4 of that row's capacity. Skipping the row as if
// its entry were zero reports x1 = 1, which breaks the row.
func TestSolveEliminatesTinyFactors(t *testing.T) {
	x, _, err := Solve(&Problem{
		Objective: []float64{-1, -1},
		Constraints: []Constraint{
			{Coeffs: []float64{5e-10, 1}, Op: LE, RHS: 1},
			{Coeffs: []float64{1, 0}, Op: LE, RHS: 1e6},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(x[0], 1e6) || !approxEq(x[1], 1-5e-4) {
		t.Fatalf("x = %v, want [1e6 0.9995]", x)
	}
}

func TestSolveBinaryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(10)
		costs := make([]float64, n)
		for i := range costs {
			costs[i] = rng.Float64()*10 - 5
		}
		minOnes := 2
		maxOnes := n
		got, err := SolveBinary(costs, minOnes, maxOnes)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		_, wantObj, err := BruteForceBinary(costs, minOnes, maxOnes)
		if err != nil {
			t.Fatalf("trial %d oracle: %v", trial, err)
		}
		// The LP relaxation of this problem is integral at vertices (it is a
		// cardinality-constrained selection), so relax+round+repair should be
		// exactly optimal.
		if !approxEq(got.Objective, wantObj) {
			t.Fatalf("trial %d: objective %v, oracle %v (costs=%v, x=%v)",
				trial, got.Objective, wantObj, costs, got.X)
		}
		ones := 0
		for _, v := range got.X {
			ones += v
		}
		if ones < minOnes || ones > maxOnes {
			t.Fatalf("trial %d: cardinality %d outside [%d,%d]", trial, ones, minOnes, maxOnes)
		}
	}
}

func TestSolveBinaryCardinalityRepair(t *testing.T) {
	// All costs positive → LP wants all zeros, but minOnes forces 2.
	costs := []float64{5, 1, 3, 2}
	res, err := SolveBinary(costs, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	ones := 0
	for _, v := range res.X {
		ones += v
	}
	if ones != 2 {
		t.Fatalf("ones = %d, want exactly 2 (cheapest feasible)", ones)
	}
	// The two cheapest costs are 1 and 2.
	if !approxEq(res.Objective, 3) {
		t.Fatalf("objective = %v, want 3", res.Objective)
	}
}

func TestSolveBinaryAllNegativeCosts(t *testing.T) {
	costs := []float64{-1, -2, -3}
	res, err := SolveBinary(costs, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(res.Objective, -6) {
		t.Fatalf("objective = %v, want -6 (pick everything)", res.Objective)
	}
}

func TestSolveBinaryValidation(t *testing.T) {
	if _, err := SolveBinary(nil, 0, 1); err == nil {
		t.Fatal("empty problem should fail")
	}
	if _, err := SolveBinary([]float64{1}, 2, 1); err == nil {
		t.Fatal("minOnes > maxOnes should fail")
	}
	// maxOnes beyond n is clamped, not an error.
	if _, err := SolveBinary([]float64{1, 2}, 0, 10); err != nil {
		t.Fatal(err)
	}
}

func TestBruteForceBinaryValidation(t *testing.T) {
	if _, _, err := BruteForceBinary(make([]float64, 25), 0, 5); err == nil {
		t.Fatal("oversized brute force should fail")
	}
	if _, _, err := BruteForceBinary([]float64{1}, 2, 1); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("impossible cardinality: %v", err)
	}
}

func TestConstraintOpString(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Fatal("op strings wrong")
	}
	if ConstraintOp(99).String() != "?" {
		t.Fatal("unknown op should be ?")
	}
}

func TestSolveBinaryLargeInstance(t *testing.T) {
	// A paper-sized instance: ~60 key frames.
	rng := rand.New(rand.NewSource(7))
	costs := make([]float64, 60)
	for i := range costs {
		costs[i] = rng.Float64()*4 - 2
	}
	res, err := SolveBinary(costs, 2, 60)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal = sum of negative costs (or two smallest if <2 negatives).
	var want float64
	neg := 0
	for _, c := range costs {
		if c < 0 {
			want += c
			neg++
		}
	}
	if neg < 2 {
		t.Skip("unlucky seed")
	}
	if !approxEq(res.Objective, want) {
		t.Fatalf("objective = %v, want %v", res.Objective, want)
	}
}

// BruteForceBinary exhaustively solves the same problem for n ≤ 20; it is
// the test oracle for SolveBinary.
func BruteForceBinary(costs []float64, minOnes, maxOnes int) ([]int, float64, error) {
	n := len(costs)
	if n == 0 || n > 20 {
		return nil, 0, fmt.Errorf("%w: brute force supports 1..20 vars, got %d", ErrMalformed, n)
	}
	if maxOnes > n {
		maxOnes = n
	}
	bestObj := math.Inf(1)
	var best []int
	for mask := 0; mask < 1<<n; mask++ {
		ones := 0
		var obj float64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				ones++
				obj += costs[i]
			}
		}
		if ones < minOnes || ones > maxOnes {
			continue
		}
		if obj < bestObj {
			bestObj = obj
			best = make([]int, n)
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					best[i] = 1
				}
			}
		}
	}
	if best == nil {
		return nil, 0, ErrInfeasible
	}
	return best, bestObj, nil
}

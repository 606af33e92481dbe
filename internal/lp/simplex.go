// Package lp implements a dense two-phase Simplex solver for linear
// programs in the form
//
//	minimize    cᵀx
//	subject to  A x (≤ | = | ≥) b,   lo ≤ x ≤ hi
//
// plus the binary-integer-program relaxation-and-rounding procedure the
// paper uses for its key-frame selection problem (Section 3.3.2): relax
// x ∈ {0,1} to x ∈ [0,1], solve the LP with Simplex, and round at 0.5.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// ConstraintOp is the relational operator of one constraint row.
type ConstraintOp int

// Constraint operators.
const (
	LE ConstraintOp = iota // ≤
	GE                     // ≥
	EQ                     // =
)

func (op ConstraintOp) String() string {
	switch op {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return "?"
	}
}

// Constraint is one row: Coeffs·x op RHS.
type Constraint struct {
	Coeffs []float64
	Op     ConstraintOp
	RHS    float64
}

// Problem is a minimization LP over variables x[0..n) with box bounds
// [0, Upper[i]] (Upper may be +Inf).
type Problem struct {
	Objective   []float64
	Constraints []Constraint
	Upper       []float64 // nil means all +Inf
}

// Solver failure modes.
var (
	ErrInfeasible = errors.New("lp: problem is infeasible")
	ErrUnbounded  = errors.New("lp: problem is unbounded")
	ErrMalformed  = errors.New("lp: malformed problem")
)

const (
	tol      = 1e-9
	maxIters = 50000
)

// Solve minimizes the problem and returns the optimal x and objective
// value. It converts the problem to standard form (adding slack, surplus
// and upper-bound rows), runs phase 1 to find a basic feasible solution and
// phase 2 to optimize.
func Solve(p *Problem) (x []float64, obj float64, err error) {
	n := len(p.Objective)
	if n == 0 {
		return nil, 0, fmt.Errorf("%w: empty objective", ErrMalformed)
	}
	for i, c := range p.Constraints {
		if len(c.Coeffs) != n {
			return nil, 0, fmt.Errorf("%w: constraint %d has %d coeffs, want %d",
				ErrMalformed, i, len(c.Coeffs), n)
		}
	}
	if p.Upper != nil && len(p.Upper) != n {
		return nil, 0, fmt.Errorf("%w: upper bounds len %d, want %d", ErrMalformed, len(p.Upper), n)
	}

	// Assemble rows: user constraints plus upper-bound rows x_i ≤ u_i.
	rows := make([]Constraint, 0, len(p.Constraints)+n)
	rows = append(rows, p.Constraints...)
	if p.Upper != nil {
		for i, u := range p.Upper {
			if math.IsInf(u, 1) {
				continue
			}
			if u < 0 {
				return nil, 0, fmt.Errorf("%w: negative upper bound %v on x%d", ErrMalformed, u, i)
			}
			coeffs := make([]float64, n)
			coeffs[i] = 1
			rows = append(rows, Constraint{Coeffs: coeffs, Op: LE, RHS: u})
		}
	}

	t := newTableau(p.Objective, rows)
	if err := t.phase1(); err != nil {
		return nil, 0, err
	}
	if err := t.phase2(); err != nil {
		return nil, 0, err
	}
	x = t.solution(n)
	for i := range p.Objective {
		obj += p.Objective[i] * x[i]
	}
	return x, obj, nil
}

// tableau is a standard-form Simplex tableau with slack and artificial
// variables. Layout of columns: [structural | slack/surplus | artificial | rhs].
type tableau struct {
	m, n      int // constraint rows, structural vars
	cols      int // total variable columns (excl. rhs)
	a         [][]float64
	basis     []int
	objective []float64
	artStart  int
	numArt    int
}

func newTableau(objective []float64, rows []Constraint) *tableau {
	m := len(rows)
	n := len(objective)

	// Count slack (one per LE/GE) and artificial (GE/EQ, and LE with
	// negative rhs handled by flipping) columns.
	type rowInfo struct {
		coeffs []float64
		op     ConstraintOp
		rhs    float64
	}
	infos := make([]rowInfo, m)
	for i, c := range rows {
		coeffs := append([]float64(nil), c.Coeffs...)
		op := c.Op
		rhs := c.RHS
		if rhs < 0 { // normalize to non-negative rhs
			for j := range coeffs {
				coeffs[j] = -coeffs[j]
			}
			rhs = -rhs
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		infos[i] = rowInfo{coeffs, op, rhs}
	}

	numSlack := 0
	numArt := 0
	for _, info := range infos {
		switch info.op {
		case LE:
			numSlack++
		case GE:
			numSlack++
			numArt++
		case EQ:
			numArt++
		}
	}

	cols := n + numSlack + numArt
	t := &tableau{
		m: m, n: n, cols: cols,
		a:         make([][]float64, m),
		basis:     make([]int, m),
		objective: objective,
		artStart:  n + numSlack,
		numArt:    numArt,
	}

	slack := n
	art := t.artStart
	for i, info := range infos {
		row := make([]float64, cols+1)
		copy(row, info.coeffs)
		row[cols] = info.rhs
		switch info.op {
		case LE:
			row[slack] = 1
			t.basis[i] = slack
			slack++
		case GE:
			row[slack] = -1
			slack++
			row[art] = 1
			t.basis[i] = art
			art++
		case EQ:
			row[art] = 1
			t.basis[i] = art
			art++
		}
		t.a[i] = row
	}
	return t
}

// pivot performs a standard pivot on (row, col).
func (t *tableau) pivot(row, col int) {
	p := t.a[row][col]
	for j := range t.a[row] {
		t.a[row][j] /= p
	}
	for i := range t.a {
		if i == row {
			continue
		}
		// A row whose entry is exactly zero needs no elimination, and
		// skipping it keeps a pivot cheap on the sparse BIP tableau. A
		// near-zero row must still eliminate (TestSolveEliminatesTinyFactors).
		factor := t.a[i][col]
		if factor == 0 {
			continue
		}
		for j := range t.a[i] {
			t.a[i][j] -= factor * t.a[row][j]
		}
	}
	t.basis[row] = col
}

// simplexLoop runs the simplex method with cost vector c over the current
// tableau (Bland's rule for anti-cycling).
func (t *tableau) simplexLoop(c []float64) error {
	for iter := 0; iter < maxIters; iter++ {
		// Reduced costs: r_j = c_j − c_Bᵀ B⁻¹ A_j. Since the tableau keeps
		// B⁻¹A explicitly, compute z_j = Σ_i c_basis[i]·a[i][j].
		entering := -1
		for j := 0; j < t.cols; j++ {
			var z float64
			for i := 0; i < t.m; i++ {
				z += c[t.basis[i]] * t.a[i][j]
			}
			if c[j]-z < -tol {
				// Bland's rule: the lowest-index improving column enters.
				entering = j
				break
			}
		}
		if entering == -1 {
			return nil // optimal
		}
		// Ratio test.
		leaving := -1
		minRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			if t.a[i][entering] > tol {
				ratio := t.a[i][t.cols] / t.a[i][entering]
				if ratio < minRatio-tol ||
					(math.Abs(ratio-minRatio) <= tol && (leaving == -1 || t.basis[i] < t.basis[leaving])) {
					minRatio = ratio
					leaving = i
				}
			}
		}
		if leaving == -1 {
			return ErrUnbounded
		}
		t.pivot(leaving, entering)
	}
	return fmt.Errorf("lp: simplex did not converge in %d iterations", maxIters)
}

// phase1 minimizes the sum of artificial variables to find a basic feasible
// solution.
func (t *tableau) phase1() error {
	if t.numArt == 0 {
		return nil
	}
	c := make([]float64, t.cols)
	for j := t.artStart; j < t.cols; j++ {
		c[j] = 1
	}
	if err := t.simplexLoop(c); err != nil {
		if errors.Is(err, ErrUnbounded) {
			return ErrInfeasible // phase-1 objective is bounded below by 0
		}
		return err
	}
	// Infeasible if any artificial variable remains positive.
	var artSum float64
	for i := 0; i < t.m; i++ {
		if t.basis[i] >= t.artStart {
			artSum += t.a[i][t.cols]
		}
	}
	if artSum > 1e-6 {
		return ErrInfeasible
	}
	// Drive remaining artificial variables out of the basis when possible.
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artStart {
			continue
		}
		for j := 0; j < t.artStart; j++ {
			if math.Abs(t.a[i][j]) > tol {
				t.pivot(i, j)
				break
			}
		}
	}
	return nil
}

// phase2 optimizes the real objective; artificial columns are frozen by
// assigning them prohibitive cost.
func (t *tableau) phase2() error {
	c := make([]float64, t.cols)
	copy(c, t.objective)
	for j := t.artStart; j < t.cols; j++ {
		c[j] = 1e18 // effectively forbid re-entering
	}
	return t.simplexLoop(c)
}

// solution extracts the first n structural variable values.
func (t *tableau) solution(n int) []float64 {
	x := make([]float64, n)
	for i, b := range t.basis {
		if b < n {
			v := t.a[i][t.cols]
			if math.Abs(v) < tol {
				v = 0
			}
			x[b] = v
		}
	}
	return x
}

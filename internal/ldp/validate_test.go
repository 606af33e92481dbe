package ldp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// These tests pin the runtime guards at the privacy-parameter boundary,
// which hold every flip probability in [0, 1] and every ε in range: NaN
// fails every ordered comparison, so plain range checks like
// `f <= 0 || f > 1` silently accept it and the ε accounting goes NaN.

func TestEpsilonRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if eps, err := Epsilon(3, f); err == nil {
			t.Errorf("Epsilon(3, %v) = %v, want error", f, eps)
		}
	}
}

func TestFlipProbabilityRejectsNonFinite(t *testing.T) {
	for _, eps := range []float64{math.NaN(), math.Inf(1)} {
		if f, err := FlipProbability(3, eps); err == nil {
			t.Errorf("FlipProbability(3, %v) = %v, want error", eps, f)
		}
	}
	// -Inf is already covered by the negative check.
	if _, err := FlipProbability(3, math.Inf(-1)); err == nil {
		t.Error("FlipProbability(3, -Inf) accepted")
	}
}

// TestFlipProbabilityRejectsDegenerate: no bits to spend on, or a finite
// budget whose per-bit share overflows the exponential, which would
// otherwise return f = 0 with no error (an infinite ε from a finite
// request).
func TestFlipProbabilityRejectsDegenerate(t *testing.T) {
	for _, c := range []struct {
		k   int
		eps float64
	}{{0, 1}, {1, 710}, {2, 2000}} {
		if f, err := FlipProbability(c.k, c.eps); !errors.Is(err, ErrBudget) {
			t.Errorf("FlipProbability(%d, %v) = %v, %v; want ErrBudget", c.k, c.eps, f, err)
		}
	}
}

func TestClassicRRRejectsNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := ClassicRR(BitVector{true, false}, math.NaN(), rng); err == nil {
		t.Error("ClassicRR accepted eps = NaN")
	}
}

// TestClassicRRKeepsBitsAtHugeBudget: a finite per-bit budget past the
// exponential's overflow (ε/bit ≈ 709.78) keeps every bit with probability
// 1; it must not flip them all, as an Inf/Inf keep probability did.
func TestClassicRRKeepsBitsAtHugeBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bits := BitVector{true, false, true, true}
	for _, perBit := range []float64{710, 1e4} {
		got, err := ClassicRR(bits, perBit*float64(len(bits)), rng)
		if err != nil {
			t.Fatalf("ClassicRR at eps/bit %v: %v", perBit, err)
		}
		if Hamming(got, bits) != 0 {
			t.Errorf("ClassicRR at eps/bit %v = %v, want its input %v", perBit, got, bits)
		}
	}
	if p := KeepProbability(1e4); p != 1 {
		t.Errorf("KeepProbability(1e4) = %v, want 1", p)
	}
}

func TestRAPPORFlipRejectsNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := RAPPORFlip(BitVector{true, false}, math.NaN(), rng); err == nil {
		t.Error("RAPPORFlip accepted f = NaN")
	}
}

// TestOutOfRangeParametersReturnErrBudget: every privacy-parameter slot of
// the primitives refuses a value outside its range with ErrBudget, finite
// or not, so no caller can spend an ε the mechanism does not deliver.
func TestOutOfRangeParametersReturnErrBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bits := BitVector{true, false, true}
	type check struct {
		name string
		err  error
	}
	var checks []check
	for _, f := range []float64{1.5, -0.1} {
		_, err := RAPPORFlip(bits, f, rng)
		checks = append(checks, check{fmt.Sprintf("RAPPORFlip(f=%v)", f), err})
	}
	for _, eps := range []float64{-0.25, math.Inf(1)} {
		_, err := ClassicRR(bits, eps, rng)
		checks = append(checks, check{fmt.Sprintf("ClassicRR(eps=%v)", eps), err})
	}
	_, err := Epsilon(3, 0)
	checks = append(checks, check{"Epsilon(f=0)", err})
	_, err = FlipProbability(3, -1)
	checks = append(checks, check{"FlipProbability(eps=-1)", err})
	for _, p := range []struct{ sens, eps float64 }{
		{1, 0}, {1, -1}, {1, math.NaN()}, {1, math.Inf(1)},
		{-1, 1}, {math.NaN(), 1},
	} {
		_, err := LaplaceMechanism(2, p.sens, p.eps, rng)
		checks = append(checks, check{fmt.Sprintf("LaplaceMechanism(sens=%v, eps=%v)", p.sens, p.eps), err})
		_, err = NoisyCounts([]int{3, 0, 5}, p.sens, p.eps, rng)
		checks = append(checks, check{fmt.Sprintf("NoisyCounts(sens=%v, eps=%v)", p.sens, p.eps), err})
	}
	for _, c := range checks {
		if !errors.Is(c.err, ErrBudget) {
			t.Errorf("%s: err = %v, want ErrBudget", c.name, c.err)
		}
	}
}

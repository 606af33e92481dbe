package ldp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// These tests pin the NaN/Inf guards at the privacy-parameter boundary:
// NaN fails every ordered comparison, so plain range checks like
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

func TestRAPPORFlipRejectsNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := RAPPORFlip(BitVector{true, false}, math.NaN(), rng); err == nil {
		t.Error("RAPPORFlip accepted f = NaN")
	}
}

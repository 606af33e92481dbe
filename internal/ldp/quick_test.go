package ldp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestRAPPORFlipPreservesLength: output vectors always match input length.
func TestRAPPORFlipPreservesLength(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(bits []bool, fRaw float64) bool {
		fv := math.Mod(math.Abs(fRaw), 1)
		out, err := RAPPORFlip(BitVector(bits), fv, rng)
		return err == nil && len(out) == len(bits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestHammingMetricProperties: Hamming distance is a metric on equal-length
// vectors (identity, symmetry, triangle inequality).
func TestHammingMetricProperties(t *testing.T) {
	f := func(aRaw, bRaw, cRaw []bool) bool {
		n := len(aRaw)
		if len(bRaw) < n {
			n = len(bRaw)
		}
		if len(cRaw) < n {
			n = len(cRaw)
		}
		a := BitVector(aRaw[:n])
		b := BitVector(bRaw[:n])
		c := BitVector(cRaw[:n])
		if Hamming(a, a) != 0 {
			return false
		}
		if Hamming(a, b) != Hamming(b, a) {
			return false
		}
		return Hamming(a, c) <= Hamming(a, b)+Hamming(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEpsilonFlipProbabilityBijection over the full valid domain.
func TestEpsilonFlipProbabilityBijection(t *testing.T) {
	f := func(epsRaw float64, kRaw uint8) bool {
		k := int(kRaw)%30 + 1
		eps := math.Mod(math.Abs(epsRaw), 50)
		fv, err := FlipProbability(k, eps)
		if err != nil {
			return false
		}
		if fv <= 0 || fv > 1 {
			return false
		}
		back, err := Epsilon(k, fv)
		if err != nil {
			return false
		}
		return math.Abs(back-eps) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

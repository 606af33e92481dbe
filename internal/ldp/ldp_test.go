package ldp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEpsilonKnownValues(t *testing.T) {
	// f=0.5 over 1 bit: ln(1.5/0.5) = ln 3.
	eps, err := Epsilon(1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eps-math.Log(3)) > 1e-12 {
		t.Fatalf("Epsilon(1,0.5) = %v, want ln3", eps)
	}
	// f=1 means both flip branches are uniform: zero information, eps=0.
	eps, err = Epsilon(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if eps != 0 {
		t.Fatalf("Epsilon(10,1) = %v, want 0", eps)
	}
	// Zero dimensions cost nothing.
	if eps, _ := Epsilon(0, 0.3); eps != 0 {
		t.Fatalf("Epsilon(0,·) = %v", eps)
	}
}

func TestEpsilonRejectsBadInput(t *testing.T) {
	if _, err := Epsilon(-1, 0.5); err == nil {
		t.Fatal("negative k should fail")
	}
	if _, err := Epsilon(1, 0); err == nil {
		t.Fatal("f=0 should fail (infinite epsilon)")
	}
	if _, err := Epsilon(1, 1.5); err == nil {
		t.Fatal("f>1 should fail")
	}
}

func TestFlipProbabilityInvertsEpsilon(t *testing.T) {
	f := func(kRaw uint8, fRaw float64) bool {
		k := int(kRaw%20) + 1
		fv := math.Mod(math.Abs(fRaw), 0.98) + 0.01 // (0.01, 0.99)
		eps, err := Epsilon(k, fv)
		if err != nil {
			return false
		}
		back, err := FlipProbability(k, eps)
		if err != nil {
			return false
		}
		return math.Abs(back-fv) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEpsilonMonotone(t *testing.T) {
	// More bits or smaller f ⇒ larger ε.
	e1, _ := Epsilon(5, 0.5)
	e2, _ := Epsilon(10, 0.5)
	if e2 <= e1 {
		t.Fatal("epsilon should grow with dimension")
	}
	e3, _ := Epsilon(5, 0.2)
	if e3 <= e1 {
		t.Fatal("epsilon should grow as f shrinks")
	}
}

func TestKeepProbability(t *testing.T) {
	if got := KeepProbability(0); got != 0.5 {
		t.Fatalf("KeepProbability(0) = %v, want 0.5 (coin flip)", got)
	}
	if got := KeepProbability(10); got < 0.99 {
		t.Fatalf("large budget should keep truth: %v", got)
	}
}

func TestBitVectorBasics(t *testing.T) {
	b := NewBitVector(5)
	if !b.Empty() || b.Ones() != 0 {
		t.Fatal("fresh vector should be empty")
	}
	b[1], b[3] = true, true
	if b.Ones() != 2 || b.Empty() {
		t.Fatalf("Ones = %d", b.Ones())
	}
	c := append(NewBitVector(0), b...)
	c[0] = true
	if Hamming(b, c) != 1 {
		t.Fatalf("Hamming = %d", Hamming(b, c))
	}
	if Hamming(b, b[:3]) != 2 { // common prefix equal; 2 extra positions count as diffs
		t.Fatalf("Hamming with length mismatch = %d", Hamming(b, b[:3]))
	}
}

func TestClassicRRStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := 1
	trials := 20000
	eps := math.Log(3) // keep prob 0.75
	kept := 0
	truth := BitVector{true}
	for i := 0; i < trials; i++ {
		out, err := ClassicRR(truth, eps, rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != m {
			t.Fatalf("len = %d", len(out))
		}
		if out[0] {
			kept++
		}
	}
	got := float64(kept) / float64(trials)
	if math.Abs(got-0.75) > 0.02 {
		t.Fatalf("keep rate = %v, want ~0.75", got)
	}
}

func TestClassicRRSmallBudgetIsCoinFlip(t *testing.T) {
	// The paper's "poor utility" argument: with eps split over many bits the
	// output is nearly uniform.
	rng := rand.New(rand.NewSource(2))
	truth := NewBitVector(1000)
	out, err := ClassicRR(truth, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	ones := out.Ones()
	if ones < 400 || ones > 600 {
		t.Fatalf("expected ~500 ones from near-uniform RR, got %d", ones)
	}
}

func TestClassicRREmptyAndErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	out, err := ClassicRR(NewBitVector(0), 1, rng)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty vector: %v, %v", out, err)
	}
	if _, err := ClassicRR(NewBitVector(3), -1, rng); err == nil {
		t.Fatal("negative epsilon should fail")
	}
}

func TestRAPPORFlipStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := 0.4
	trials := 30000
	onesFromTrue, onesFromFalse := 0, 0
	for i := 0; i < trials; i++ {
		out, err := RAPPORFlip(BitVector{true, false}, f, rng)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] {
			onesFromTrue++
		}
		if out[1] {
			onesFromFalse++
		}
	}
	pTrue := float64(onesFromTrue) / float64(trials)
	pFalse := float64(onesFromFalse) / float64(trials)
	if math.Abs(pTrue-ExpectedBit(true, f)) > 0.02 {
		t.Fatalf("P(1|true) = %v, want %v", pTrue, ExpectedBit(true, f))
	}
	if math.Abs(pFalse-ExpectedBit(false, f)) > 0.02 {
		t.Fatalf("P(1|false) = %v, want %v", pFalse, ExpectedBit(false, f))
	}
}

func TestRAPPORFlipRejectsBadF(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, f := range []float64{-0.1, 1.1} {
		if _, err := RAPPORFlip(NewBitVector(2), f, rng); err == nil {
			t.Fatalf("f=%v should fail", f)
		}
	}
}

func TestRAPPORFlipZeroFIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	in := BitVector{true, false, true, true, false}
	out, err := RAPPORFlip(in, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if Hamming(in, out) != 0 {
		t.Fatal("f=0 must be the identity")
	}
}

// TestIndistinguishabilityBound verifies the Definition 2.1 likelihood-ratio
// bound empirically: for two maximally different inputs and any output, the
// ratio of output probabilities stays within e^ε (with sampling slack).
func TestIndistinguishabilityBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := 0.5
	k := 2
	epsWant, _ := Epsilon(k, f)

	a := BitVector{true, true}
	b := BitVector{false, false}
	trials := 200000
	countsA := map[int]int{}
	countsB := map[int]int{}
	encode := func(v BitVector) int {
		code := 0
		for i, bit := range v {
			if bit {
				code |= 1 << i
			}
		}
		return code
	}
	for i := 0; i < trials; i++ {
		oa, _ := RAPPORFlip(a, f, rng)
		ob, _ := RAPPORFlip(b, f, rng)
		countsA[encode(oa)]++
		countsB[encode(ob)]++
	}
	for code := 0; code < 1<<k; code++ {
		pa := float64(countsA[code]) / float64(trials)
		pb := float64(countsB[code]) / float64(trials)
		if pa == 0 || pb == 0 {
			t.Fatalf("output %b never produced; f=%v should reach all outputs", code, f)
		}
		ratio := math.Abs(math.Log(pa / pb))
		if ratio > epsWant*1.1+0.05 {
			t.Fatalf("log ratio %v exceeds eps %v for output %b", ratio, epsWant, code)
		}
	}
}

func TestLaplaceStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	b := 2.0
	n := 100000
	var sum, sumAbs float64
	for i := 0; i < n; i++ {
		x := Laplace(b, rng)
		sum += x
		sumAbs += math.Abs(x)
	}
	mean := sum / float64(n)
	meanAbs := sumAbs / float64(n)
	if math.Abs(mean) > 0.05 {
		t.Fatalf("Laplace mean = %v, want ~0", mean)
	}
	// E|X| = b for Laplace(0, b).
	if math.Abs(meanAbs-b) > 0.05 {
		t.Fatalf("Laplace E|X| = %v, want %v", meanAbs, b)
	}
}

// zeroOnce is a rand.Source whose first draw is 0, which puts Laplace's u
// at the closed end of its interval; every later draw is nonzero. A
// source that always yields 0 would make Laplace draw forever.
type zeroOnce struct{ n int64 }

func (s *zeroOnce) Int63() int64 {
	s.n++
	if s.n == 1 {
		return 0
	}
	return s.n << 40
}

func (s *zeroOnce) Seed(int64) {}

// TestLaplaceZeroDrawIsFinite: a zero draw is redrawn, so no noise and no
// noisy count is infinite. Remapping it to u = 0.5 gave +Inf.
func TestLaplaceZeroDrawIsFinite(t *testing.T) {
	if x := Laplace(1, rand.New(&zeroOnce{})); math.IsInf(x, 0) || math.IsNaN(x) {
		t.Errorf("Laplace(1) = %v, want finite", x)
	}
	v, err := LaplaceMechanism(3, 1, 0.5, rand.New(&zeroOnce{}))
	if err != nil || math.IsInf(v, 0) || math.IsNaN(v) {
		t.Errorf("LaplaceMechanism(3, 1, 0.5) = %v, %v; want finite, nil", v, err)
	}
	counts, err := NoisyCounts([]int{2, 5}, 1, 0.5, rand.New(&zeroOnce{}))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if math.IsInf(c, 0) || math.IsNaN(c) {
			t.Errorf("NoisyCounts([2 5])[%d] = %v, want finite", i, c)
		}
	}
}

func TestLaplaceMechanismValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	if _, err := LaplaceMechanism(1, 1, 0, rng); err == nil {
		t.Fatal("eps=0 should fail")
	}
	if _, err := LaplaceMechanism(1, -1, 1, rng); err == nil {
		t.Fatal("negative sensitivity should fail")
	}
	v, err := LaplaceMechanism(10, 1, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-10) > 1 {
		t.Fatalf("tiny noise expected at eps=100: %v", v)
	}
}

func TestNoisyCountsNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	counts := []int{0, 1, 2, 0, 5}
	out, err := NoisyCounts(counts, 1, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(counts) {
		t.Fatalf("len = %d", len(out))
	}
	for i, v := range out {
		if v < 0 {
			t.Fatalf("count %d went negative: %v", i, v)
		}
	}
	if _, err := NoisyCounts(counts, 1, 0, rng); err == nil {
		t.Fatal("eps=0 should fail")
	}
}

// ExpectedBit returns E[output bit] of the Equation 4 rule given the true
// bit (Equation 6 with x_k = 1): f/2 when the bit is 0, 1−f/2 when it is 1.
// The flip-rate tests hold RAPPORFlip to it.
func ExpectedBit(truth bool, f float64) float64 {
	if truth {
		return 1 - f/2
	}
	return f / 2
}

func TestExpectedBit(t *testing.T) {
	if ExpectedBit(true, 0.2) != 0.9 {
		t.Fatalf("ExpectedBit(true,0.2) = %v", ExpectedBit(true, 0.2))
	}
	if ExpectedBit(false, 0.2) != 0.1 {
		t.Fatalf("ExpectedBit(false,0.2) = %v", ExpectedBit(false, 0.2))
	}
}

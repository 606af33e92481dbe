// Package ldp implements the local-differential-privacy primitives VERRO is
// built on: per-bit randomized response (paper Algorithm 1), the
// RAPPOR-style flip rule of Equation 4, the Laplace mechanism used to
// protect the optimization statistics (Section 3.3.3), and the ε-accounting
// identities of Theorems 3.2-3.4.
package ldp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrBudget reports an invalid privacy parameter.
var ErrBudget = errors.New("ldp: invalid privacy parameter")

// Epsilon returns the ε-Object Indistinguishability level achieved by
// applying the Equation 4 flip rule with probability f independently to k
// bits: ε = k·ln((2−f)/f) (Theorem 3.3 with ℓ replaced by the number of
// picked key frames k, Theorem 3.4).
func Epsilon(k int, f float64) (float64, error) {
	if k < 0 {
		return 0, fmt.Errorf("%w: negative dimension %d", ErrBudget, k)
	}
	// NaN fails every ordered comparison, so it must be rejected explicitly:
	// f = NaN would sail through `f <= 0 || f > 1` and poison ε.
	if math.IsNaN(f) || f <= 0 || f > 1 {
		return 0, fmt.Errorf("%w: flip probability %v not in (0,1]", ErrBudget, f)
	}
	return float64(k) * math.Log((2-f)/f), nil
}

// FlipProbability inverts Epsilon: the f that spends budget eps over k bits,
// f = 2/(e^(ε/k)+1).
func FlipProbability(k int, eps float64) (float64, error) {
	if k <= 0 {
		return 0, fmt.Errorf("%w: dimension %d", ErrBudget, k)
	}
	// NaN epsilon would flow through exp() into f; +Inf would yield f = 0,
	// which Equation 4 forbids (infinite per-bit budget). Both are parameter
	// errors, not budgets.
	if math.IsNaN(eps) || math.IsInf(eps, 1) || eps < 0 {
		return 0, fmt.Errorf("%w: non-finite or negative epsilon %v", ErrBudget, eps)
	}
	// Past ε/k ≈ 709.78 the exponential overflows and f underflows to 0:
	// the same infinite per-bit budget, reached from a finite eps.
	f := 2 / (math.Exp(eps/float64(k)) + 1)
	if f <= 0 {
		return 0, fmt.Errorf("%w: epsilon %v over %d bits leaves no flip probability", ErrBudget, eps, k)
	}
	return f, nil
}

// KeepProbability returns the probability that classic binary randomized
// response reports the true bit when each bit holds budget eps:
// e^ε/(1+e^ε). This is the rule of Algorithm 1 line 6.
func KeepProbability(eps float64) float64 {
	e := math.Exp(eps)
	return e / (1 + e)
}

// BitVector is an object-presence vector (paper Definition 3.1): bit k is 1
// iff the object appears in frame k.
type BitVector []bool

// NewBitVector returns an all-zero vector of length m.
func NewBitVector(m int) BitVector { return make(BitVector, m) }

// Ones returns the number of set bits.
func (b BitVector) Ones() int {
	n := 0
	for _, v := range b {
		if v {
			n++
		}
	}
	return n
}

// Empty reports whether no bit is set — the "object lost" case of
// Section 4.2.1.
func (b BitVector) Empty() bool { return b.Ones() == 0 }

// Hamming returns the Hamming distance between two equal-length vectors.
func Hamming(a, b BitVector) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	d := 0
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			d++
		}
	}
	if len(a) != len(b) {
		d += abs(len(a) - len(b))
	}
	return d
}

// ClassicRR applies binary randomized response to every bit of b: each bit
// is reported truthfully with probability e^(ε/m)/(1+e^(ε/m)) where m =
// len(b), i.e. the total budget eps is split equally across the bits. This
// is the naive Algorithm 1 whose poor utility motivates VERRO's dimension
// reduction; it is kept as the experimental baseline.
func ClassicRR(b BitVector, eps float64, rng *rand.Rand) (BitVector, error) {
	if math.IsNaN(eps) || eps < 0 {
		return nil, fmt.Errorf("%w: negative epsilon %v", ErrBudget, eps)
	}
	m := len(b)
	out := make(BitVector, m)
	if m == 0 {
		return out, nil
	}
	keep := KeepProbability(eps / float64(m))
	for i, v := range b {
		if rng.Float64() < keep {
			out[i] = v
		} else {
			out[i] = !v
		}
	}
	return out, nil
}

// RAPPORFlip applies the Equation 4 flip rule to every bit of b: with
// probability 1−f the bit is kept, with probability f/2 it is forced to 1
// and with probability f/2 forced to 0.
func RAPPORFlip(b BitVector, f float64, rng *rand.Rand) (BitVector, error) {
	if math.IsNaN(f) || f < 0 || f > 1 {
		return nil, fmt.Errorf("%w: flip probability %v", ErrBudget, f)
	}
	out := make(BitVector, len(b))
	for i, v := range b {
		switch r := rng.Float64(); {
		case r < 1-f:
			out[i] = v
		case r < 1-f/2:
			out[i] = true
		default:
			out[i] = false
		}
	}
	return out, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

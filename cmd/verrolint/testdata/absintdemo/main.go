// Package main is the planted interval violation for the driver's
// interval-suite test: a cmd-style binary feeding a provably out-of-range flip
// probability and a provably negative ε into the LDP primitives. The
// probrange analyzer must report both with exact positions.
package main

import (
	"fmt"
	"math/rand"

	"verro/internal/ldp"
)

func main() {
	rng := rand.New(rand.NewSource(1))
	b := ldp.NewBitVector(8)
	b[0] = true
	flipped := ldp.RAPPORFlip(b, 1.5, rng)
	noisy := ldp.ClassicRR(b, -0.25, rng)
	fmt.Println(flipped.Ones(), noisy.Ones())
}

// Privacysweep: choosing a privacy budget. This example shows the
// privacy/utility frontier a video owner navigates: it sweeps the flip
// probability f, reports the achieved ε and the resulting utility
// (object retention and trajectory deviation), and shows owners who think
// in budgets how to set one directly (Phase1Config.Eps).
package main

import (
	"fmt"
	"log"

	"verro"
)

func main() {
	preset, err := verro.BenchmarkPreset("MOT01")
	if err != nil {
		log.Fatal(err)
	}
	preset = preset.Scaled(0.25)
	g, err := verro.GenerateBenchmark(preset)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("video: %v, %d objects\n\n", g.Video, g.Truth.Len())

	fmt.Println("privacy/utility frontier (lower f = better utility, larger ε):")
	fmt.Printf("%6s %10s %10s %10s\n", "f", "epsilon", "retained", "deviation")
	for _, f := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		cfg := verro.DefaultConfig()
		cfg.Phase1.F = f
		cfg.Phase2.SkipRender = true // utility metrics only; no pixels
		res, err := verro.Sanitize(g.Video, g.Truth, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6.1f %10.2f %6d/%-3d %10.3f\n",
			f, res.Epsilon, res.SyntheticTracks.Len(), g.Truth.Len(),
			verro.TrajectoryDeviation(g.Truth, res.SyntheticTracks))
	}

	// Owners who start from a budget: "I can afford ε = 5 over this video."
	// Phase I picks the key frames first and then sets the f that spends
	// exactly the budget over them.
	fmt.Println("\nbudget-first workflow:")
	for _, eps := range []float64{2, 5, 10} {
		cfg := verro.DefaultConfig()
		cfg.Phase1.Eps = eps
		cfg.Phase2.SkipRender = true
		res, err := verro.Sanitize(g.Video, g.Truth, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  ε=%4.1f over %d picked key frames -> f=%.3f\n", eps, len(res.Phase1.Picked), res.Phase1.F)
	}
}

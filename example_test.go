package verro_test

import (
	"fmt"
	"log"

	"verro"
)

// ExampleSanitize demonstrates the minimal sanitization flow: render a
// benchmark video with known ground truth, sanitize it at f = 0.1, and
// report the privacy level.
func ExampleSanitize() {
	preset, err := verro.BenchmarkPreset("MOT01")
	if err != nil {
		log.Fatal(err)
	}
	preset = preset.Scaled(0.15)
	preset.Seed = 1234
	g, err := verro.GenerateBenchmark(preset)
	if err != nil {
		log.Fatal(err)
	}

	cfg := verro.DefaultConfig()
	cfg.Phase1.F = 0.1
	res, err := verro.Sanitize(g.Video, g.Truth, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("frames: %d\n", res.Synthetic.Len())
	fmt.Printf("epsilon positive: %t\n", res.Epsilon > 0)
	fmt.Printf("all frames synthesized: %t\n", res.Synthetic.Len() == g.Video.Len())
	// Output:
	// frames: 67
	// epsilon positive: true
	// all frames synthesized: true
}

// ExampleSanitize_budget starts from an ε budget instead of f: Phase I
// picks the key frames first, then randomizes with the f that spends
// exactly the budget over them, and reports that f.
func ExampleSanitize_budget() {
	preset, err := verro.BenchmarkPreset("MOT01")
	if err != nil {
		log.Fatal(err)
	}
	g, err := verro.GenerateBenchmark(preset.Scaled(0.15))
	if err != nil {
		log.Fatal(err)
	}

	cfg := verro.DefaultConfig()
	cfg.Phase1.Eps = 5
	cfg.Phase2.SkipRender = true // the budget resolves without rendering
	res, err := verro.Sanitize(g.Video, g.Truth, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ε=%.1f over %d picked key frames -> f=%.3f\n", res.Epsilon, len(res.Phase1.Picked), res.Phase1.F)
	// Output:
	// ε=5.0 over 19 picked key frames -> f=0.869
}

// ExampleEpsilon shows the ε ↔ f conversion both ways.
func ExampleEpsilon() {
	eps, err := verro.Epsilon(10, 0.5) // 10 key frames at f = 0.5
	if err != nil {
		log.Fatal(err)
	}
	f, err := verro.FlipProbability(10, eps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("eps = %.2f, back to f = %.2f\n", eps, f)
	// Output:
	// eps = 10.99, back to f = 0.50
}

// ExampleDetectAndTrack runs the preprocessing pipeline on a benchmark
// video and reports that objects were found.
func ExampleDetectAndTrack() {
	preset, err := verro.BenchmarkPreset("MOT01")
	if err != nil {
		log.Fatal(err)
	}
	preset = preset.Scaled(0.15)
	g, err := verro.GenerateBenchmark(preset)
	if err != nil {
		log.Fatal(err)
	}
	tracks, err := verro.DetectAndTrack(g.Video, verro.DefaultPipelineConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("found objects: %t\n", tracks.Len() > 0)
	// Output:
	// found objects: true
}

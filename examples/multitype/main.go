// Multitype: one video containing both pedestrians and vehicles, sanitized
// so that each class is ε-indistinguishable within itself (paper
// Section 5, "Multiple Object Types"). The example also exports a short
// animated GIF of the synthetic video for quick visual inspection.
package main

import (
	"fmt"
	"log"
	"sort"

	"verro"
	"verro/internal/scene"
)

func main() {
	// A street scene populated with pedestrians; a second pass adds
	// vehicle-labelled tracks so the sanitizer sees two classes. (With
	// real footage the detector assigns classes.)
	preset := verro.Preset{
		Name: "mixed-street", W: 192, H: 108, Frames: 180, Objects: 10,
		FPS: 30, Style: scene.StyleStreet, Class: scene.Pedestrian, Seed: 7,
	}
	g, err := verro.GenerateBenchmark(preset)
	if err != nil {
		log.Fatal(err)
	}
	// Relabel a third of the objects as vehicles.
	for i, tr := range g.Truth.Tracks {
		if i%3 == 0 {
			tr.Class = scene.Vehicle.String()
		}
	}

	cfg := verro.DefaultConfig()
	cfg.Phase1.F = 0.1
	cfg.PerClass = true
	res, err := verro.Sanitize(g.Video, g.Truth, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("input: %v\n", g.Video)
	fmt.Printf("classes sanitized independently:\n")
	classes := make([]string, 0, len(res.PerClass))
	for name := range res.PerClass {
		classes = append(classes, name)
	}
	sort.Strings(classes)
	for _, name := range classes {
		p1 := res.PerClass[name]
		fmt.Printf("  %-11s ε=%.1f over %d picked key frames\n",
			name, p1.Epsilon, len(p1.Picked))
	}
	fmt.Printf("overall guarantee: every class ε-indistinguishable within itself (worst ε=%.1f)\n",
		res.Epsilon)

	byClass := map[string]int{}
	for _, tr := range res.SyntheticTracks.Tracks {
		byClass[tr.Class]++
	}
	fmt.Printf("synthetic objects: %v\n", byClass)

	if err := res.Synthetic.WriteGIF("mixed-street.gif", 3); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote mixed-street.gif (animated preview of the synthetic video)")
}

// Package main is the seeded leak the driver test feeds to privleak: a
// cmd/verro-style binary that prints a raw detection's bounding box to its
// published stdout. Under verro/cmd/ fmt printing is a sink, and the
// detector output is a source, so the analyzer must flag the Printf.
package main

import (
	"fmt"
	"os"

	"verro/internal/detect"
	"verro/internal/img"
	"verro/internal/scene"
)

func dump(det detect.Detector, frame *img.Image) error {
	boxes, err := det.Detect(frame)
	if err != nil {
		return err
	}
	for _, b := range boxes {
		fmt.Printf("object at %v score %.2f\n", b.Box, b.Score)
	}
	return nil
}

func main() {
	det, err := detect.NewPedestrianDetector(scene.StyleSquare, 1)
	if err != nil {
		os.Exit(1)
	}
	if err := dump(det, img.New(64, 64)); err != nil {
		os.Exit(1)
	}
}

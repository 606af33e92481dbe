package track

import (
	"testing"

	"verro/internal/detect"
	"verro/internal/geom"
	"verro/internal/img"
	"verro/internal/obs"
	"verro/internal/scene"
)

// synthDetections builds a frame sequence with two objects moving on known
// paths and returns frames plus per-frame perfect detections.
func twoObjectSequence(n int) (frames []*img.Image, dets [][]detect.Detection, paths [2][]geom.Rect) {
	for k := 0; k < n; k++ {
		f := img.NewFilled(128, 96, img.RGB{R: 90, G: 90, B: 90})
		b1 := geom.RectAt(5+3*k, 20, 8, 16)
		b2 := geom.RectAt(110-3*k, 60, 8, 16)
		f.Fill(b1, img.RGB{R: 220, G: 50, B: 50})
		f.Fill(b2, img.RGB{R: 50, G: 50, B: 220})
		frames = append(frames, f)
		dets = append(dets, []detect.Detection{
			{Box: b1, Score: 1},
			{Box: b2, Score: 1},
		})
		paths[0] = append(paths[0], b1)
		paths[1] = append(paths[1], b2)
	}
	return frames, dets, paths
}

func TestTrackerMaintainsTwoIDs(t *testing.T) {
	frames, dets, _ := twoObjectSequence(20)
	tr := New(DefaultConfig())
	for k := range frames {
		if err := tr.Step(frames[k], dets[k]); err != nil {
			t.Fatal(err)
		}
	}
	set := tr.Tracks()
	if set.Len() != 2 {
		t.Fatalf("tracks = %d, want 2", set.Len())
	}
	for _, trk := range set.Tracks {
		if trk.Len() < 15 {
			t.Fatalf("track %d covers only %d frames", trk.ID, trk.Len())
		}
	}
}

func TestTrackerIDsStableThroughCrossing(t *testing.T) {
	// The two objects pass each other around frame 17 (x: 5+3k vs 110-3k).
	frames, dets, paths := twoObjectSequence(35)
	tr := New(DefaultConfig())
	for k := range frames {
		if err := tr.Step(frames[k], dets[k]); err != nil {
			t.Fatal(err)
		}
	}
	set := tr.Tracks()
	if set.Len() < 2 {
		t.Fatalf("tracks = %d", set.Len())
	}
	// Identify which track corresponds to path 0 at an early frame, then
	// verify it still follows path 0 late (no identity swap). Objects are at
	// different y so association should be easy.
	var early, late *int
	for _, trk := range set.Tracks {
		if b, ok := trk.Box(5); ok && geom.IoU(b, paths[0][5]) > 0.5 {
			id := trk.ID
			early = &id
		}
		if b, ok := trk.Box(30); ok && geom.IoU(b, paths[0][30]) > 0.5 {
			id := trk.ID
			late = &id
		}
	}
	if early == nil || late == nil {
		t.Fatal("could not locate path-0 track")
	}
	if *early != *late {
		t.Fatalf("identity switch: %d -> %d", *early, *late)
	}
}

func TestTrackerSurvivesMissedDetections(t *testing.T) {
	frames, dets, _ := twoObjectSequence(20)
	// Drop all detections in frames 8-10 (occlusion).
	for k := 8; k <= 10; k++ {
		dets[k] = nil
	}
	tr := New(DefaultConfig())
	for k := range frames {
		if err := tr.Step(frames[k], dets[k]); err != nil {
			t.Fatal(err)
		}
	}
	set := tr.Tracks()
	if set.Len() != 2 {
		t.Fatalf("tracks = %d, want 2 (no new IDs after occlusion)", set.Len())
	}
}

func TestTrackerDropsGhostTracks(t *testing.T) {
	// A detection appears once and never again: it must not become a
	// confirmed track.
	tr := New(DefaultConfig())
	f := img.NewFilled(64, 48, img.RGB{R: 80, G: 80, B: 80})
	if err := tr.Step(f, []detect.Detection{{Box: geom.RectAt(10, 10, 6, 12), Score: 1}}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		if err := tr.Step(f, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.Tracks().Len(); got != 0 {
		t.Fatalf("ghost produced %d confirmed tracks", got)
	}
}

func TestTrackerNilFrame(t *testing.T) {
	tr := New(DefaultConfig())
	if err := tr.Step(nil, nil); err == nil {
		t.Fatal("nil frame should fail")
	}
}

func TestTrackerZeroConfigGetsDefaults(t *testing.T) {
	tr := New(Config{})
	f := img.NewFilled(32, 32, img.RGB{R: 10, G: 10, B: 10})
	if err := tr.Step(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunOnGeneratedScene(t *testing.T) {
	p := scene.Preset{
		Name: "track-test", W: 96, H: 72, Frames: 40, Objects: 4,
		FPS: 30, Style: scene.StyleSquare, Class: scene.Pedestrian, Seed: 51,
	}
	g, err := scene.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := detect.MedianBackground(g.Video.Frames, 2, obs.Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	set, err := Run(g.Video.Frames, detect.NewBGSubtractor(bg), DefaultConfig(), obs.Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() == 0 {
		t.Fatal("no tracks recovered from generated scene")
	}
	// The tracker should find a number of objects in the same ballpark as
	// the ground truth (fragmentation can add a few).
	if set.Len() > g.Truth.Len()*3 {
		t.Fatalf("excessive fragmentation: %d tracks for %d objects", set.Len(), g.Truth.Len())
	}
}

func TestPadForbidden(t *testing.T) {
	cost := [][]float64{{1, 2}, {3, 4}}
	padded := padForbidden(cost)
	if len(padded) != 2 || len(padded[0]) != 4 {
		t.Fatalf("padded dims %dx%d", len(padded), len(padded[0]))
	}
	if padded[0][2] != 1e6 || padded[1][3] != 1e6 {
		t.Fatal("padding values wrong")
	}
	if got := padForbidden(nil); got != nil {
		t.Fatal("empty input should pass through")
	}
}

package core

import (
	"math"
	"testing"

	"verro/internal/motio"
	"verro/internal/scene"
	"verro/internal/vid"
)

func twoCameras(t *testing.T) ([]*vid.Video, []*motio.TrackSet) {
	t.Helper()
	var videos []*vid.Video
	var tracks []*motio.TrackSet
	for i, style := range []scene.Style{scene.StyleSquare, scene.StyleNightStreet} {
		p := scene.Preset{
			Name: "cam", W: 64, H: 48, Frames: 24, Objects: 3,
			FPS: 30, Style: style, Class: scene.Pedestrian, Seed: int64(400 + i),
		}
		g, err := scene.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		videos = append(videos, g.Video)
		tracks = append(tracks, g.Truth)
	}
	return videos, tracks
}

func TestSanitizeJoint(t *testing.T) {
	videos, tracks := twoCameras(t)
	cfg := DefaultConfig()
	cfg.Keyframe.MaxSegmentLen = 6
	total := 40.0
	res, err := SanitizeJoint(videos, tracks, total, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 2 || len(res.PerCamera) != 2 {
		t.Fatalf("results = %d", len(res.Results))
	}
	// Composition: each camera spends exactly its share, so the joint
	// budget is the requested total up to rounding.
	if math.Abs(res.Epsilon-total) > 1e-9*total {
		t.Fatalf("composed epsilon %v, requested %v", res.Epsilon, total)
	}
	var sum float64
	for _, e := range res.PerCamera {
		if e <= 0 {
			t.Fatalf("per-camera epsilon %v", e)
		}
		sum += e
	}
	if math.Abs(sum-res.Epsilon) > 1e-9 {
		t.Fatalf("composition accounting wrong: %v vs %v", sum, res.Epsilon)
	}
	for i, r := range res.Results {
		if r.Synthetic.Len() != videos[i].Len() {
			t.Fatalf("camera %d synthetic incomplete", i)
		}
	}
}

func TestSanitizeJointValidation(t *testing.T) {
	videos, tracks := twoCameras(t)
	if _, err := SanitizeJoint(nil, nil, 10, DefaultConfig()); err == nil {
		t.Fatal("no videos should fail")
	}
	if _, err := SanitizeJoint(videos, tracks[:1], 10, DefaultConfig()); err == nil {
		t.Fatal("length mismatch should fail")
	}
	if _, err := SanitizeJoint(videos, tracks, 0, DefaultConfig()); err == nil {
		t.Fatal("zero budget should fail")
	}
}

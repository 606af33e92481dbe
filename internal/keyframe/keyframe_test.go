package keyframe

import (
	"errors"
	"testing"

	"verro/internal/img"
	"verro/internal/obs"
	"verro/internal/vid"
)

// sceneVideo builds a video with `scenes` visually distinct scenes of
// `perScene` frames each.
func sceneVideo(t *testing.T, scenes, perScene int) *vid.Video {
	t.Helper()
	colors := []img.RGB{
		{R: 200, G: 40, B: 40},
		{R: 40, G: 200, B: 40},
		{R: 40, G: 40, B: 200},
		{R: 200, G: 200, B: 40},
		{R: 40, G: 200, B: 200},
	}
	v := vid.New("scenes", 32, 24, 30)
	for s := 0; s < scenes; s++ {
		base := img.NewFilled(32, 24, colors[s%len(colors)])
		base.AddNoise(10, uint64(s))
		for k := 0; k < perScene; k++ {
			f := base.Clone()
			f.AddNoise(2, uint64(s*1000+k)) // small intra-scene variation
			if err := v.Append(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	return v
}

func TestExtractFindsSceneBoundaries(t *testing.T) {
	v := sceneVideo(t, 3, 10)
	res, err := Extract(v, DefaultConfig(), obs.Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 3 {
		t.Fatalf("segments = %d, want 3 (%v)", len(res.Segments), res.Segments)
	}
	// Boundaries at multiples of 10.
	for i, s := range res.Segments {
		if s.Start != i*10 || s.End != i*10+9 {
			t.Fatalf("segment %d = %v", i, s)
		}
		if !s.Contains(s.KeyFrame) {
			t.Fatalf("key frame %d outside segment %v", s.KeyFrame, s)
		}
	}
	if len(res.KeyFrames) != 3 {
		t.Fatalf("key frames = %v", res.KeyFrames)
	}
}

func TestExtractSingleStaticScene(t *testing.T) {
	v := sceneVideo(t, 1, 20)
	res, err := Extract(v, DefaultConfig(), obs.Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 1 {
		t.Fatalf("static video should be one segment, got %d", len(res.Segments))
	}
	if s := res.Segments[0]; s.Start != 0 || s.End != 19 {
		t.Fatalf("segment covers frames %d-%d", s.Start, s.End)
	}
}

func TestMaxSegmentLenForcesSplits(t *testing.T) {
	v := sceneVideo(t, 1, 20)
	cfg := DefaultConfig()
	cfg.MaxSegmentLen = 5
	res, err := Extract(v, cfg, obs.Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 4 {
		t.Fatalf("segments = %d, want 4", len(res.Segments))
	}
	for _, s := range res.Segments {
		if s.End-s.Start+1 > 5 {
			t.Fatalf("segment too long: %v", s)
		}
	}
}

func TestSegmentsPartitionVideo(t *testing.T) {
	v := sceneVideo(t, 4, 7)
	res, err := Extract(v, DefaultConfig(), obs.Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	// Segments must tile [0, len) without gaps or overlaps.
	next := 0
	for _, s := range res.Segments {
		if s.Start != next {
			t.Fatalf("gap or overlap at %d: %v", next, s)
		}
		next = s.End + 1
	}
	if next != v.Len() {
		t.Fatalf("segments end at %d, video has %d frames", next, v.Len())
	}
	// Key frames ascend.
	for i := 1; i < len(res.KeyFrames); i++ {
		if res.KeyFrames[i] <= res.KeyFrames[i-1] {
			t.Fatalf("key frames not ascending: %v", res.KeyFrames)
		}
	}
}

func TestSegmentOf(t *testing.T) {
	v := sceneVideo(t, 2, 5)
	res, err := Extract(v, DefaultConfig(), obs.Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.SegmentOf(0); got != 0 {
		t.Fatalf("SegmentOf(0) = %d", got)
	}
	if got := res.SegmentOf(9); got != len(res.Segments)-1 {
		t.Fatalf("SegmentOf(9) = %d", got)
	}
	if got := res.SegmentOf(99); got != -1 {
		t.Fatalf("SegmentOf(out of range) = %d", got)
	}
}

func TestExtractEmptyVideo(t *testing.T) {
	v := vid.New("empty", 8, 8, 30)
	if _, err := Extract(v, DefaultConfig(), obs.Runtime{}); !errors.Is(err, ErrEmptyVideo) {
		t.Fatalf("want ErrEmptyVideo, got %v", err)
	}
}

func TestExtractBadBins(t *testing.T) {
	v := sceneVideo(t, 1, 2)
	cfg := DefaultConfig()
	cfg.HBins = 0
	if _, err := Extract(v, cfg, obs.Runtime{}); err == nil {
		t.Fatal("zero bins should fail")
	}
}

func TestSingleFrameVideo(t *testing.T) {
	v := vid.New("one", 8, 8, 30)
	if err := v.Append(img.NewFilled(8, 8, img.RGB{R: 1, G: 2, B: 3})); err != nil {
		t.Fatal(err)
	}
	res, err := Extract(v, DefaultConfig(), obs.Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 1 || res.Segments[0].KeyFrame != 0 {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestKeyFramePrefersHighEntropy(t *testing.T) {
	// One segment where a middle frame has much richer content: it should
	// win the key-frame election.
	v := vid.New("entropy", 32, 24, 30)
	base := img.NewFilled(32, 24, img.RGB{R: 120, G: 120, B: 120})
	for k := 0; k < 9; k++ {
		f := base.Clone()
		if k == 4 {
			f.AddNoise(100, 7) // high-entropy frame
		} else {
			f.AddNoise(2, uint64(k))
		}
		if err := v.Append(f); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig()
	cfg.Tau = 0.2 // keep everything in one segment despite the noisy frame
	res, err := Extract(v, cfg, obs.Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 1 {
		t.Fatalf("expected single segment, got %v", res.Segments)
	}
	if res.Segments[0].KeyFrame != 4 {
		t.Fatalf("key frame = %d, want 4 (max entropy)", res.Segments[0].KeyFrame)
	}
}

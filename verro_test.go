package verro

import (
	"math"
	"testing"

	"verro/internal/geom"
	"verro/internal/img"
	"verro/internal/scene"
)

func smallBenchmark(t *testing.T) *Generated {
	t.Helper()
	p := Preset{
		Name: "api-test", W: 96, H: 72, Frames: 36, Objects: 4,
		FPS: 30, Style: scene.StyleSquare, Class: scene.Pedestrian, Seed: 201,
	}
	g, err := GenerateBenchmark(p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPublicAPISanitize(t *testing.T) {
	g := smallBenchmark(t)
	cfg := DefaultConfig()
	cfg.Keyframe.MaxSegmentLen = 8
	res, err := Sanitize(g.Video, g.Truth, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Synthetic.Len() != g.Video.Len() {
		t.Fatalf("synthetic frames = %d", res.Synthetic.Len())
	}
	if res.Epsilon <= 0 {
		t.Fatalf("epsilon = %v", res.Epsilon)
	}
	dev := TrajectoryDeviation(g.Truth, res.SyntheticTracks)
	if dev < 0 || dev > 1 {
		t.Fatalf("deviation = %v outside [0,1]", dev)
	}
}

func TestEpsilonHelpers(t *testing.T) {
	eps, err := Epsilon(10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	f, err := FlipProbability(10, eps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-0.5) > 1e-9 {
		t.Fatalf("round trip f = %v", f)
	}
}

func TestBenchmarkPresetLookup(t *testing.T) {
	if len(BenchmarkPresets()) != 3 {
		t.Fatal("want 3 presets")
	}
	p, err := BenchmarkPreset("MOT01")
	if err != nil || p.Frames != 450 {
		t.Fatalf("MOT01: %+v %v", p, err)
	}
	if _, err := BenchmarkPreset("bogus"); err == nil {
		t.Fatal("unknown preset should fail")
	}
}

func TestVideoAndTrackIO(t *testing.T) {
	g := smallBenchmark(t)
	dir := t.TempDir()
	n, err := WriteVideo(dir+"/v.vvf", g.Video)
	if err != nil || n <= 0 {
		t.Fatalf("WriteVideo: %d, %v", n, err)
	}
	back, err := ReadVideo(dir + "/v.vvf")
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != g.Video.Len() {
		t.Fatal("video round trip lost frames")
	}
	sz, err := EncodedSize(g.Video)
	if err != nil || sz != n {
		t.Fatalf("EncodedSize = %d, want %d (%v)", sz, n, err)
	}
	if err := SaveTracks(dir+"/t.csv", g.Truth); err != nil {
		t.Fatal(err)
	}
	tr, err := LoadTracks(dir + "/t.csv")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != g.Truth.Len() {
		t.Fatal("track round trip lost objects")
	}
}

func TestDetectAndTrackBackgroundSub(t *testing.T) {
	g := smallBenchmark(t)
	tracks, err := DetectAndTrack(g.Video, DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tracks.Len() == 0 {
		t.Fatal("no tracks recovered")
	}
}

func TestDetectAndTrackValidation(t *testing.T) {
	if _, err := DetectAndTrack(nil, DefaultPipelineConfig()); err == nil {
		t.Fatal("nil video should fail")
	}
	g := smallBenchmark(t)
	cfg := DefaultPipelineConfig()
	cfg.Detector = DetectorKind(42)
	if _, err := DetectAndTrack(g.Video, cfg); err == nil {
		t.Fatal("unknown detector should fail")
	}
}

func TestFullPipelineDetectTrackSanitize(t *testing.T) {
	// The flow a library user follows: raw video → tracks → synthetic.
	g := smallBenchmark(t)
	tracks, err := DetectAndTrack(g.Video, DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Keyframe.MaxSegmentLen = 8
	res, err := Sanitize(g.Video, tracks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Synthetic.Len() != g.Video.Len() {
		t.Fatal("pipeline output incomplete")
	}
}

func TestNewConstructors(t *testing.T) {
	v := NewVideo("x", 8, 8, 30)
	if v.W != 8 {
		t.Fatal("NewVideo wrong")
	}
	ts := NewTrackSet()
	tr := NewTrack(1, "pedestrian")
	ts.Add(tr)
	if ts.Len() != 1 {
		t.Fatal("NewTrackSet/NewTrack wrong")
	}
}

func TestPublicSanitizeMultiType(t *testing.T) {
	g := smallBenchmark(t)
	for i, tr := range g.Truth.Tracks {
		if i%2 == 0 {
			tr.Class = "vehicle"
		}
	}
	cfg := DefaultConfig()
	cfg.PerClass = true
	res, err := Sanitize(g.Video, g.Truth, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Synthetic.Len() != g.Video.Len() {
		t.Fatal("multitype output incomplete")
	}
	if len(res.PerClass) != 2 || res.Phase1 != nil {
		t.Fatalf("classes = %d, Phase1 = %v; want 2 classes and no single Phase1", len(res.PerClass), res.Phase1)
	}
}

func TestPublicSanitizeJoint(t *testing.T) {
	g1 := smallBenchmark(t)
	p2, _ := BenchmarkPreset("MOT01")
	p2 = p2.Scaled(0.12)
	p2.Seed = 999
	g2, err := GenerateBenchmark(p2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SanitizeJoint(
		[]*Video{g1.Video, g2.Video},
		[]*TrackSet{g1.Truth, g2.Truth},
		30, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 2 {
		t.Fatalf("results = %d", len(res.Results))
	}
	if res.Epsilon <= 0 || res.Epsilon > 32 {
		t.Fatalf("joint epsilon = %v", res.Epsilon)
	}
}

// TestDetectAndTrackShortClip is the regression for the background
// sampling stride on short videos: a 10-frame clip must feed (at least) nine
// frames into the median background model, so the moving object is detected
// and tracked rather than absorbed into the background.
func TestDetectAndTrackShortClip(t *testing.T) {
	v := NewVideo("short", 64, 48, 30)
	for k := 0; k < 10; k++ {
		f := img.NewFilled(64, 48, img.RGB{R: 30, G: 30, B: 30})
		f.Fill(geom.RectAt(2+5*k, 20, 8, 8), img.RGB{R: 220, G: 220, B: 220})
		if err := v.Append(f); err != nil {
			t.Fatal(err)
		}
	}
	tracks, err := DetectAndTrack(v, DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tracks.Len() != 1 {
		t.Fatalf("tracks = %d, want exactly 1 moving object", tracks.Len())
	}
	if got := len(tracks.Tracks[0].Frames()); got < 5 {
		t.Fatalf("track covers %d frames, want >= 5", got)
	}
}

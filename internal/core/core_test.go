package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"verro/internal/geom"
	"verro/internal/img"
	"verro/internal/inpaint"
	"verro/internal/keyframe"
	"verro/internal/ldp"
	"verro/internal/motio"
	"verro/internal/obs"
	"verro/internal/scene"
	"verro/internal/vid"
)

func sampleTracks() *motio.TrackSet {
	s := motio.NewTrackSet()
	t1 := motio.NewTrack(1, "pedestrian")
	for k := 0; k < 10; k++ {
		t1.Set(k, geom.RectAt(2*k, 10, 4, 8))
	}
	t2 := motio.NewTrack(2, "pedestrian")
	for k := 5; k < 15; k++ {
		t2.Set(k, geom.RectAt(40-2*k, 20, 4, 8))
	}
	s.Add(t1)
	s.Add(t2)
	return s
}

func TestPresenceVectors(t *testing.T) {
	vs := PresenceVectors(sampleTracks(), 20)
	if len(vs) != 2 {
		t.Fatalf("vectors = %d", len(vs))
	}
	if vs[0].Ones() != 10 || vs[1].Ones() != 10 {
		t.Fatalf("ones = %d, %d", vs[0].Ones(), vs[1].Ones())
	}
	if !vs[0][0] || vs[0][10] {
		t.Fatal("object 1 presence pattern wrong")
	}
	if vs[1][0] || !vs[1][5] {
		t.Fatal("object 2 presence pattern wrong")
	}
	// Out-of-range boxes are ignored.
	short := PresenceVectors(sampleTracks(), 5)
	if short[1].Ones() != 0 {
		t.Fatal("frames beyond numFrames should be dropped")
	}
}

func TestReduceToKeyFrames(t *testing.T) {
	full := PresenceVectors(sampleTracks(), 20)
	reduced, err := ReduceToKeyFrames(full, []int{0, 7, 12})
	if err != nil {
		t.Fatal(err)
	}
	// Object 1 present in 0 and 7, absent in 12.
	if !reduced[0][0] || !reduced[0][1] || reduced[0][2] {
		t.Fatalf("object 1 reduced = %v", reduced[0])
	}
	// Object 2 present in 7 and 12, absent in 0.
	if reduced[1][0] || !reduced[1][1] || !reduced[1][2] {
		t.Fatalf("object 2 reduced = %v", reduced[1])
	}
	if _, err := ReduceToKeyFrames(full, []int{99}); err == nil {
		t.Fatal("key frame outside video should fail")
	}
}

func TestDistinctPresentAndCounts(t *testing.T) {
	vs := []ldp.BitVector{
		{true, false},
		{false, false},
		{true, true},
	}
	if DistinctPresent(vs) != 2 {
		t.Fatalf("DistinctPresent = %d", DistinctPresent(vs))
	}
	counts := KeyFrameCounts(vs)
	if counts[0] != 2 || counts[1] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if KeyFrameCounts(nil) != nil {
		t.Fatal("empty input should be nil")
	}
}

func TestRunPhase1PicksDenseFrames(t *testing.T) {
	// 3 objects; key frame 1 has 3 objects, frames 0 and 2 have none.
	reduced := []ldp.BitVector{
		{false, true, false},
		{false, true, false},
		{false, true, false},
	}
	cfg := Phase1Config{F: 0.1, Optimize: true, MinPicked: 2}
	rng := rand.New(rand.NewSource(1))
	res, err := RunPhase1(reduced, []int{0, 10, 20}, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Frame 1 is the only one above half the mean; the floor of 2 adds the
	// earliest of the two empty frames.
	if !slices.Equal(res.Picked, []int{0, 1}) {
		t.Fatalf("picked %v, want [0 1]", res.Picked)
	}
	// Epsilon accounting.
	want, _ := ldp.Epsilon(len(res.Picked), 0.1)
	if math.Abs(res.Epsilon-want) > 1e-12 {
		t.Fatalf("epsilon = %v, want %v", res.Epsilon, want)
	}
	// Output vectors are zero at unpicked frames.
	for i, v := range res.Output {
		for k := range v {
			if v[k] && !slices.Contains(res.Picked, k) {
				t.Fatalf("object %d has bit at unpicked frame %d", i, k)
			}
		}
	}
}

func TestRunPhase1WithoutOptimizeUsesAll(t *testing.T) {
	reduced := []ldp.BitVector{{true, false, true, false}}
	rng := rand.New(rand.NewSource(2))
	res, err := RunPhase1(reduced, []int{0, 1, 2, 3}, Phase1Config{F: 0.3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Picked) != 4 {
		t.Fatalf("expected all frames picked, got %v", res.Picked)
	}
}

func TestRunPhase1Validation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if _, err := RunPhase1(nil, nil, DefaultPhase1Config(), rng); err == nil {
		t.Fatal("no key frames should fail")
	}
	if _, err := RunPhase1([]ldp.BitVector{{true}}, []int{0}, Phase1Config{F: 0}, rng); err == nil {
		t.Fatal("f=0 should fail")
	}
	if _, err := RunPhase1([]ldp.BitVector{{true, true}}, []int{0}, Phase1Config{F: 0.1}, rng); err == nil {
		t.Fatal("vector length mismatch should fail")
	}
}

func TestRunPhase1LaplaceNoiseStillWorks(t *testing.T) {
	reduced := []ldp.BitVector{
		{true, true, false, false},
		{true, false, true, false},
	}
	cfg := Phase1Config{F: 0.2, Optimize: true, LaplaceEps: 0.5}
	rng := rand.New(rand.NewSource(4))
	res, err := RunPhase1(reduced, []int{0, 5, 10, 15}, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Picked) < 2 {
		t.Fatalf("picked %v", res.Picked)
	}
}

// TestPhase1Indistinguishability checks the Definition 2.1 bound end to end
// over Phase I: two objects with opposite presence patterns produce any
// given output with probability ratio ≤ e^ε.
func TestPhase1Indistinguishability(t *testing.T) {
	keyFrames := []int{0, 1}
	f := 0.5
	cfg := Phase1Config{F: f, Optimize: false}
	trials := 100000
	counts := [2]map[int]int{{}, {}}
	rng := rand.New(rand.NewSource(5))
	vecs := []ldp.BitVector{{true, true}, {false, false}}
	for trial := 0; trial < trials; trial++ {
		res, err := RunPhase1(vecs, keyFrames, cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		for obj := 0; obj < 2; obj++ {
			code := 0
			for b, bit := range res.Output[obj] {
				if bit {
					code |= 1 << b
				}
			}
			counts[obj][code]++
		}
	}
	eps, _ := ldp.Epsilon(2, f)
	for code := 0; code < 4; code++ {
		p0 := float64(counts[0][code]) / float64(trials)
		p1 := float64(counts[1][code]) / float64(trials)
		if p0 == 0 || p1 == 0 {
			t.Fatalf("output %b unreachable", code)
		}
		if r := math.Abs(math.Log(p0 / p1)); r > eps*1.1+0.05 {
			t.Fatalf("likelihood ratio %v exceeds eps %v", r, eps)
		}
	}
}

func TestNaiveRandomResponse(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	full := []ldp.BitVector{ldp.NewBitVector(100)}
	out, err := NaiveRandomResponse(full, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	// eps/100 per bit ⇒ nearly uniform output.
	ones := out[0].Ones()
	if ones < 25 || ones > 75 {
		t.Fatalf("naive RR should be near-uniform: %d ones", ones)
	}
	if _, err := NaiveRandomResponse(full, -1, rng); err == nil {
		t.Fatal("negative eps should fail")
	}
}

func TestPresentInKeyFrames(t *testing.T) {
	tracks := sampleTracks()
	kf := &keyframe.Result{KeyFrames: []int{12, 14}}
	if got := PresentInKeyFrames(tracks, kf); got != 1 {
		t.Fatalf("PresentInKeyFrames = %d, want 1 (only object 2)", got)
	}
	kf2 := &keyframe.Result{KeyFrames: []int{7}}
	if got := PresentInKeyFrames(tracks, kf2); got != 2 {
		t.Fatalf("PresentInKeyFrames = %d, want 2", got)
	}
}

func TestSanitizeEndToEnd(t *testing.T) {
	p := scene.Preset{
		Name: "e2e", W: 96, H: 72, Frames: 40, Objects: 5,
		FPS: 30, Style: scene.StyleSquare, Class: scene.Pedestrian, Seed: 91,
	}
	g, err := scene.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Keyframe.MaxSegmentLen = 8 // static scene: force enough key frames
	res, err := Sanitize(g.Video, g.Truth, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Synthetic.Len() != g.Video.Len() {
		t.Fatalf("synthetic has %d frames, want %d", res.Synthetic.Len(), g.Video.Len())
	}
	if res.Synthetic.W != g.Video.W || res.Synthetic.H != g.Video.H {
		t.Fatal("synthetic geometry mismatch")
	}
	if res.Epsilon <= 0 {
		t.Fatalf("epsilon = %v", res.Epsilon)
	}
	if res.Phase1 == nil || res.Phase2 == nil || res.KeyframeResult == nil {
		t.Fatal("missing diagnostics")
	}
	if len(res.Phase1.Picked) < 2 {
		t.Fatalf("picked = %v", res.Phase1.Picked)
	}
	// The synthetic video should not be identical to the original.
	same := 0
	for k := 0; k < res.Synthetic.Len(); k++ {
		if res.Synthetic.Frame(k).Equal(g.Video.Frame(k)) {
			same++
		}
	}
	if same == res.Synthetic.Len() {
		t.Fatal("sanitization did not change the video")
	}
}

func TestSanitizeValidation(t *testing.T) {
	if _, err := Sanitize(nil, motio.NewTrackSet(), DefaultConfig()); err == nil {
		t.Fatal("nil video should fail")
	}
	p := scene.Preset{
		Name: "v", W: 48, H: 36, Frames: 10, Objects: 2,
		FPS: 30, Style: scene.StyleSquare, Class: scene.Pedestrian, Seed: 92,
	}
	g, err := scene.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Sanitize(g.Video, nil, DefaultConfig()); err == nil {
		t.Fatal("nil tracks should fail")
	}
}

func TestSanitizeDeterministicForSeed(t *testing.T) {
	p := scene.Preset{
		Name: "det", W: 64, H: 48, Frames: 20, Objects: 3,
		FPS: 30, Style: scene.StyleSquare, Class: scene.Pedestrian, Seed: 93,
	}
	g, err := scene.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Keyframe.MaxSegmentLen = 5
	r1, err := Sanitize(g.Video, g.Truth, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Sanitize(g.Video, g.Truth, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < r1.Synthetic.Len(); k++ {
		if !r1.Synthetic.Frame(k).Equal(r2.Synthetic.Frame(k)) {
			t.Fatalf("frame %d differs across identical runs", k)
		}
	}
}

func TestSanitizeSingleObjectVideo(t *testing.T) {
	// Section 5: protection for one-object videos must still work.
	p := scene.Preset{
		Name: "solo", W: 64, H: 48, Frames: 20, Objects: 1,
		FPS: 30, Style: scene.StyleSquare, Class: scene.Pedestrian, Seed: 94,
	}
	g, err := scene.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if g.Truth.Len() != 1 {
		t.Skipf("generator produced %d objects", g.Truth.Len())
	}
	cfg := DefaultConfig()
	cfg.Keyframe.MaxSegmentLen = 5
	res, err := Sanitize(g.Video, g.Truth, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Synthetic.Len() != 20 {
		t.Fatal("synthetic video incomplete")
	}
}

func TestPhase2LosesEmptyVectors(t *testing.T) {
	p := scene.Preset{
		Name: "loss", W: 64, H: 48, Frames: 16, Objects: 3,
		FPS: 30, Style: scene.StyleSquare, Class: scene.Pedestrian, Seed: 95,
	}
	g, err := scene.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	kf, err := keyframe.Extract(g.Video, keyframe.Config{
		HBins: 16, SBins: 8, VBins: 8, Alpha: 0.5, Beta: 0.3, Gamma: 0.2,
		Tau: 0.97, MaxSegmentLen: 4,
	}, obs.Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	// Hand Phase II an all-empty Phase I output: every object lost, every
	// frame still rendered, as the bare background.
	n := g.Truth.Len()
	ell := len(kf.KeyFrames)
	p1 := &Phase1Result{
		KeyFrames: kf.KeyFrames,
		Picked:    []int{0, 1},
		Output:    make([]ldp.BitVector, n),
	}
	for i := range p1.Output {
		p1.Output[i] = ldp.NewBitVector(ell)
	}
	scenes, err := scenesForTest(g)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := RunPhase2(p1, kf, g.Truth, 64, 48, 16, DefaultPhase2Config(), rand.New(rand.NewSource(7)), obs.Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Lost != n {
		t.Fatalf("Lost = %d, want %d", p2.Lost, n)
	}
	if p2.Tracks.Len() != 0 {
		t.Fatalf("no objects should be rendered, got %d", p2.Tracks.Len())
	}
	plan, err := planPhase2(p1, kf, g.Truth, 64, 48, 16, DefaultPhase2Config(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	rendered, err := plan.renderRange(scenes, 0, 16, obs.Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rendered) != 16 {
		t.Fatalf("rendered %d frames, want 16", len(rendered))
	}
	for k, fr := range rendered {
		if len(fr.recs) != 0 || !fr.frame.Equal(scenes.bg) {
			t.Fatalf("frame %d is not the bare background", k)
		}
	}
}

func TestPhase2InsufficientCandidatesExpands(t *testing.T) {
	// One original object but three synthetic objects required in a key
	// frame: the pool must expand without error.
	tracks := motio.NewTrackSet()
	tr := motio.NewTrack(1, "pedestrian")
	tr.Set(2, geom.RectAt(10, 10, 4, 8))
	tr.Set(3, geom.RectAt(12, 10, 4, 8))
	tracks.Add(tr)

	kf := &keyframe.Result{
		Segments:  []keyframe.Segment{{Start: 0, End: 4, KeyFrame: 2}, {Start: 5, End: 9, KeyFrame: 7}},
		KeyFrames: []int{2, 7},
	}
	p1 := &Phase1Result{
		KeyFrames: []int{2, 7},
		Picked:    []int{0, 1},
		Output: []ldp.BitVector{
			{true, true},
			{true, false},
			{true, false},
		},
	}
	rng := rand.New(rand.NewSource(8))
	p2, err := RunPhase2(p1, kf, tracks, 64, 48, 10, DefaultPhase2Config(), rng, obs.Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Tracks.Len() != 3 {
		t.Fatalf("synthetic objects = %d, want 3", p2.Tracks.Len())
	}
}

func TestRunPhase2Validation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	if _, err := RunPhase2(nil, nil, nil, 10, 10, 10, DefaultPhase2Config(), rng, obs.Runtime{}); err == nil {
		t.Fatal("nil phase 1 should fail")
	}
	p1 := &Phase1Result{KeyFrames: []int{0}, Output: []ldp.BitVector{{true}}}
	kf := &keyframe.Result{Segments: []keyframe.Segment{{Start: 0, End: 0}}, KeyFrames: []int{0}}
	if _, err := RunPhase2(p1, kf, motio.NewTrackSet(), 0, 10, 10, DefaultPhase2Config(), rng, obs.Runtime{}); err == nil {
		t.Fatal("zero width should fail")
	}
	if _, err := RunPhase2(p1, kf, motio.NewTrackSet(), 10, 10, 10, DefaultPhase2Config(), rng, obs.Runtime{}); err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
}

// scenesForTest builds a static background provider from the generated
// clean background.
func scenesForTest(g *scene.Generated) (staticScenes, error) {
	return staticScenes{g.CleanBackground[0]}, nil
}

// staticScenes is a minimal inpaint.Scenes implementation for tests.
type staticScenes struct{ bg *img.Image }

func (s staticScenes) Background(int) (*img.Image, error) { return s.bg, nil }

func TestSanitizeMovingCamera(t *testing.T) {
	// Exercises the pan-estimation + panorama background path end to end.
	p := scene.Preset{
		Name: "moving-e2e", W: 96, H: 72, Frames: 36, Objects: 4,
		FPS: 14, Moving: true, PanRange: 48,
		Style: scene.StyleStreet, Class: scene.Pedestrian, Seed: 171,
	}
	g, err := scene.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Keyframe.MaxSegmentLen = 8
	res, err := Sanitize(g.Video, g.Truth, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Synthetic.Len() != g.Video.Len() {
		t.Fatalf("synthetic frames = %d", res.Synthetic.Len())
	}
	if !res.Synthetic.Moving {
		t.Fatal("moving flag lost")
	}
	// Background must actually pan: first and last synthetic frames differ
	// even ignoring objects (compare corners, which objects rarely touch).
	first := res.Synthetic.Frame(0)
	last := res.Synthetic.Frame(res.Synthetic.Len() - 1)
	if first.At(2, 2) == last.At(2, 2) && first.At(93, 2) == last.At(93, 2) {
		t.Log("warning: pan not visible at probe pixels (may be legitimate)")
	}
}

func TestSanitizeSingleFrameVideoFails(t *testing.T) {
	// A 1-frame video cannot satisfy MinPicked=2 interpolation, but must
	// fail cleanly or produce a 1-frame output, never panic.
	v := vid.New("one", 32, 32, 30)
	if err := v.Append(img.NewFilled(32, 32, img.RGB{R: 50, G: 50, B: 50})); err != nil {
		t.Fatal(err)
	}
	tracks := motio.NewTrackSet()
	tr := motio.NewTrack(1, "pedestrian")
	tr.Set(0, geom.RectAt(10, 10, 4, 8))
	tracks.Add(tr)
	res, err := Sanitize(v, tracks, DefaultConfig())
	if err == nil && res.Synthetic.Len() != 1 {
		t.Fatalf("unexpected result: %v frames", res.Synthetic.Len())
	}
}

func TestSanitizeTracksOutsideVideoBounds(t *testing.T) {
	// Boxes partially or fully outside the frame must not break anything.
	p := scene.Preset{
		Name: "oob", W: 48, H: 36, Frames: 12, Objects: 2,
		FPS: 30, Style: scene.StyleSquare, Class: scene.Pedestrian, Seed: 181,
	}
	g, err := scene.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	rogue := motio.NewTrack(99, "pedestrian")
	rogue.Set(0, geom.RectAt(-20, -20, 8, 8))
	rogue.Set(5, geom.RectAt(100, 100, 8, 8))
	g.Truth.Add(rogue)
	cfg := DefaultConfig()
	cfg.Keyframe.MaxSegmentLen = 4
	if _, err := Sanitize(g.Video, g.Truth, cfg); err != nil {
		t.Fatalf("out-of-bounds tracks should be tolerated: %v", err)
	}
}

// scenePreset is a small clip for the background tests: a static square
// scene, or a panning street scene when moving.
func scenePreset(name string, moving bool, seed int64) scene.Preset {
	p := scene.Preset{
		Name: name, W: 64, H: 48, Frames: 24, Objects: 4,
		FPS: 30, Style: scene.StyleSquare, Class: scene.Pedestrian, Seed: seed,
	}
	if moving {
		p.Moving, p.PanRange, p.Style = true, 24, scene.StyleStreet
	}
	return p
}

// TestSanitizeScenesPicksModel checks Result.Scenes: one frame-invariant
// background under a static camera, a panorama with an offset per frame
// under a moving one, the scene the synthetic frames were drawn over in
// both cases, and nothing when the run renders nothing.
func TestSanitizeScenesPicksModel(t *testing.T) {
	for _, moving := range []bool{false, true} {
		g, err := scene.Generate(scenePreset("sc", moving, 81))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Keyframe.MaxSegmentLen = 4
		res, err := Sanitize(g.Video, g.Truth, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mb, panorama := res.Scenes.(*inpaint.MovingBackground)
		if panorama != moving {
			t.Fatalf("moving=%v: Scenes is %T", moving, res.Scenes)
		}
		if moving && len(mb.Offsets) != g.Video.Len() {
			t.Fatalf("panorama has %d offsets for %d frames", len(mb.Offsets), g.Video.Len())
		}
		for k := 0; k < g.Video.Len(); k++ {
			bg, err := res.Scenes.Background(k)
			if err != nil {
				t.Fatal(err)
			}
			if b0, _ := res.Scenes.Background(0); !moving && !bg.Equal(b0) {
				t.Fatalf("static scenes differ between frames 0 and %d", k)
			}
			// Synthetic objects cover a small part of each frame; the rest
			// is the background verbatim.
			if diff := res.Synthetic.Frame(k).DiffCount(bg); 2*diff > bg.W*bg.H {
				t.Fatalf("moving=%v frame %d: %d of %d pixels differ from Scenes", moving, k, diff, bg.W*bg.H)
			}
		}
		cfg.Phase2.SkipRender = true
		if res, err = Sanitize(g.Video, g.Truth, cfg); err != nil {
			t.Fatal(err)
		}
		if res.Scenes != nil {
			t.Fatalf("moving=%v: SkipRender run returned Scenes %T", moving, res.Scenes)
		}
	}
}

// TestSanitizeAllCoveredBackgroundFails covers every pixel of every frame
// with objects: no background can be reconstructed, and both camera models
// must fail with inpaint.ErrAllMasked instead of rendering over a black
// scene.
func TestSanitizeAllCoveredBackgroundFails(t *testing.T) {
	for _, moving := range []bool{false, true} {
		p := scenePreset("covered", moving, 191)
		g, err := scene.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		tracks := motio.NewTrackSet()
		for id := 1; id <= 3; id++ {
			tr := motio.NewTrack(id, "pedestrian")
			for k := 0; k < g.Video.Len(); k++ {
				tr.Set(k, geom.RectAt(0, 0, p.W, p.H))
			}
			tracks.Add(tr)
		}
		cfg := DefaultConfig()
		cfg.Keyframe.MaxSegmentLen = 4
		if _, err := Sanitize(g.Video, tracks, cfg); !errors.Is(err, inpaint.ErrAllMasked) {
			t.Fatalf("moving=%v: err = %v, want inpaint.ErrAllMasked", moving, err)
		}
	}
}

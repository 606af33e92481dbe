package inpaint

import (
	"testing"

	"verro/internal/geom"
	"verro/internal/img"
	"verro/internal/motio"
	"verro/internal/obs"
	"verro/internal/scene"
	"verro/internal/vid"
)

func TestMaskBasics(t *testing.T) {
	m := NewMask(10, 8)
	if m.Count() != 0 {
		t.Fatal("fresh mask should be empty")
	}
	m.SetRect(geom.RectAt(2, 2, 3, 2), true)
	if m.Count() != 6 {
		t.Fatalf("Count = %d", m.Count())
	}
	if !m.At(2, 2) || m.At(5, 2) {
		t.Fatal("SetRect wrong extent")
	}
	if m.At(-1, 0) || m.At(10, 0) {
		t.Fatal("out of bounds should read false")
	}
	m.Set(-5, -5, true) // must not panic
	c := m.Clone()
	c.Set(0, 0, true)
	if m.At(0, 0) {
		t.Fatal("clone aliases")
	}
}

func TestMaskDilate(t *testing.T) {
	m := NewMask(10, 10)
	m.Set(5, 5, true)
	d := m.Dilate(1)
	if d.Count() != 9 {
		t.Fatalf("dilated count = %d, want 9", d.Count())
	}
	if d.At(5, 5) != true || !d.At(4, 4) || !d.At(6, 6) {
		t.Fatal("dilation shape wrong")
	}
	same := m.Dilate(0)
	if same.Count() != 1 {
		t.Fatal("zero dilation should copy")
	}
}

func TestInpaintLeavesKnownPixelsUntouched(t *testing.T) {
	src := img.New(40, 30)
	src.VerticalGradient(img.RGB{R: 10, G: 40, B: 90}, img.RGB{R: 200, G: 180, B: 120})
	src.AddNoise(5, 3)
	mask := NewMask(40, 30)
	hole := geom.RectAt(15, 10, 8, 8)
	mask.SetRect(hole, true)

	out, err := Inpaint(src, mask, DefaultConfig(), obs.Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < 30; y++ {
		for x := 0; x < 40; x++ {
			if mask.At(x, y) {
				continue
			}
			if out.At(x, y) != src.At(x, y) {
				t.Fatalf("known pixel (%d,%d) modified", x, y)
			}
		}
	}
}

func TestInpaintFillsPlausibly(t *testing.T) {
	// Uniform-texture background: the filled hole should be close to the
	// surrounding color.
	base := img.NewFilled(40, 30, img.RGB{R: 120, G: 140, B: 100})
	base.AddNoise(4, 9)
	mask := NewMask(40, 30)
	hole := geom.RectAt(16, 10, 8, 8)
	// Paint the hole area with an "object" first.
	src := base.Clone()
	src.Fill(hole, img.RGB{R: 255, G: 0, B: 0})
	mask.SetRect(hole, true)

	out, err := Inpaint(src, mask, DefaultConfig(), obs.Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	// Every filled pixel should now be near the background, not red.
	for y := hole.Min.Y; y < hole.Max.Y; y++ {
		for x := hole.Min.X; x < hole.Max.X; x++ {
			c := out.At(x, y)
			if c.R > 200 && c.G < 60 {
				t.Fatalf("red object pixel survived at (%d,%d): %v", x, y, c)
			}
		}
	}
	// Mean abs diff against the clean background must be small.
	if d := out.MeanAbsDiff(base); d > 12 {
		t.Fatalf("reconstruction error %v too high", d)
	}
}

func TestInpaintStructurePropagation(t *testing.T) {
	// A strong vertical edge through the hole should survive inpainting
	// roughly (Criminisi's selling point).
	src := img.New(40, 40)
	for y := 0; y < 40; y++ {
		for x := 0; x < 40; x++ {
			c := img.RGB{R: 40, G: 40, B: 40}
			if x >= 20 {
				c = img.RGB{R: 220, G: 220, B: 220}
			}
			src.Set(x, y, c)
		}
	}
	mask := NewMask(40, 40)
	mask.SetRect(geom.RectAt(14, 15, 12, 10), true)
	out, err := Inpaint(src, mask, DefaultConfig(), obs.Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	// Left side of the hole should stay dark, right side bright.
	dark := out.At(15, 20)
	bright := out.At(24, 20)
	if dark.R > 130 {
		t.Fatalf("left of edge became bright: %v", dark)
	}
	if bright.R < 130 {
		t.Fatalf("right of edge became dark: %v", bright)
	}
}

func TestInpaintValidation(t *testing.T) {
	src := img.New(10, 10)
	if _, err := Inpaint(src, NewMask(5, 5), DefaultConfig(), obs.Runtime{}); err == nil {
		t.Fatal("mask size mismatch should fail")
	}
	full := NewMask(10, 10)
	full.SetRect(geom.RectAt(0, 0, 10, 10), true)
	if _, err := Inpaint(src, full, DefaultConfig(), obs.Runtime{}); err == nil {
		t.Fatal("fully masked image should fail")
	}
	// Empty mask: identity.
	out, err := Inpaint(src, NewMask(10, 10), DefaultConfig(), obs.Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(src) {
		t.Fatal("empty mask should be identity")
	}
}

func TestFrameMask(t *testing.T) {
	set := motio.NewTrackSet()
	tr := motio.NewTrack(1, "pedestrian")
	tr.Set(3, geom.RectAt(5, 5, 4, 6))
	set.Add(tr)
	m := FrameMask(20, 20, 3, set)
	if m.Count() == 0 {
		t.Fatal("mask empty where object present")
	}
	if !m.At(4, 4) { // dilated by 2 — but (4,4) is 1 off the corner
		t.Fatal("dilation missing")
	}
	empty := FrameMask(20, 20, 0, set)
	if empty.Count() != 0 {
		t.Fatal("no objects in frame 0")
	}
}

func TestStaticBackgroundRecoversScene(t *testing.T) {
	p := scene.Preset{
		Name: "bg-test", W: 96, H: 72, Frames: 36, Objects: 4,
		FPS: 30, Style: scene.StyleSquare, Class: scene.Pedestrian, Seed: 61,
	}
	g, err := scene.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := StaticBackground(g.Video, g.Truth, 2, DefaultConfig(), obs.Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	// The clean background is constant for static presets.
	if d := bg.MeanAbsDiff(g.CleanBackground[0]); d > 6 {
		t.Fatalf("background reconstruction error %v", d)
	}
}

func TestStaticBackgroundEmptyVideo(t *testing.T) {
	v := vid.New("e", 8, 8, 30)
	if _, err := StaticBackground(v, motio.NewTrackSet(), 1, DefaultConfig(), obs.Runtime{}); err == nil {
		t.Fatal("empty video should fail")
	}
}

func TestEstimatePan(t *testing.T) {
	// Build a panning video over a textured panorama with known offsets.
	pano := scene.PaintBackground(scene.StyleStreet, 200, 60, 5)
	v := vid.New("pan", 100, 60, 30)
	want := []int{0, 2, 5, 9, 14, 20, 27, 35, 44, 54}
	for _, off := range want {
		if err := v.Append(scene.ViewportAt(pano, 100, 60, off)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := EstimatePan(v, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if d := got[i] - want[i]; d < -2 || d > 2 {
			t.Fatalf("offset %d = %d, want ~%d", i, got[i], want[i])
		}
	}
}

func TestMovingBackgroundRoundTrip(t *testing.T) {
	p := scene.Preset{
		Name: "mv-bg", W: 96, H: 72, Frames: 30, Objects: 3,
		FPS: 30, Moving: true, PanRange: 40,
		Style: scene.StyleStreet, Class: scene.Pedestrian, Seed: 71,
	}
	g, err := scene.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := BuildMovingBackground(g.Video, g.Truth, 1, DefaultConfig(), obs.Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	if len(mb.Offsets) != g.Video.Len() {
		t.Fatalf("offsets len %d", len(mb.Offsets))
	}
	if mb.Panorama.W < g.Video.W {
		t.Fatal("panorama narrower than viewport")
	}
	for _, k := range []int{0, 15, 29} {
		bg, err := mb.FrameBackground(k)
		if err != nil {
			t.Fatal(err)
		}
		if bg.W != 96 || bg.H != 72 {
			t.Fatalf("background dims %dx%d", bg.W, bg.H)
		}
		// Should be much closer to the clean background than to a random
		// frame full of sprites.
		if d := bg.MeanAbsDiff(g.CleanBackground[k]); d > 20 {
			t.Fatalf("frame %d: background error %v", k, d)
		}
	}
	if _, err := mb.FrameBackground(-1); err == nil {
		t.Fatal("negative frame should fail")
	}
	if got := mb.SortedOffsets(); len(got) == 0 {
		t.Fatal("no offsets")
	}
}

func TestExtractScenesPicksModel(t *testing.T) {
	p := scene.Preset{
		Name: "sc", W: 64, H: 48, Frames: 12, Objects: 2,
		FPS: 30, Style: scene.StyleSquare, Class: scene.Pedestrian, Seed: 81,
	}
	g, err := scene.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ExtractScenes(g.Video, g.Truth, 1, DefaultConfig(), obs.Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	b0, err := s.Background(0)
	if err != nil {
		t.Fatal(err)
	}
	b5, err := s.Background(5)
	if err != nil {
		t.Fatal(err)
	}
	if !b0.Equal(b5) {
		t.Fatal("static scenes should be frame-invariant")
	}
}

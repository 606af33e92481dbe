package track

import (
	"bytes"
	"errors"
	"maps"
	"slices"
	"testing"

	"verro/internal/detect"
	"verro/internal/geom"
	"verro/internal/img"
	"verro/internal/motio"
	"verro/internal/obs"
	"verro/internal/par"
	"verro/internal/scene"
)

// Step advances the tracker by one frame: the serial reference that the
// tracker tests drive and that the pooled Runner.Window must match. frame
// supplies pixel data for the appearance term; detections are the frame's
// detector output.
func (t *Tracker) Step(frame *img.Image, detections []detect.Detection) error {
	hists, err := appearance(frame, detections)
	if err != nil {
		return err
	}
	return t.step(detections, hists)
}

// Run drives a detector over a whole frame sequence and returns the tracks:
// a Runner fed one window.
func Run(frames []*img.Image, det detect.Detector, cfg Config, rt obs.Runtime) (*motio.TrackSet, error) {
	r := NewRunner(det, cfg, rt)
	if err := r.Window(frames); err != nil {
		return nil, err
	}
	return r.Finish()
}

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

// failAt wraps a detector and fails on one frame.
type failAt struct {
	detect.Detector
	bad *img.Image
}

func (f failAt) Detect(frame *img.Image) ([]detect.Detection, error) {
	if frame == f.bad {
		return nil, errors.New("detector failed")
	}
	if frame == nil {
		return nil, nil
	}
	return f.Detector.Detect(frame)
}

// TestRunnerWindowMatchesStep checks that the pooled path, which builds
// the appearance histograms beside Detect, tracks exactly as Step does.
func TestRunnerWindowMatchesStep(t *testing.T) {
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
	det := detect.NewBGSubtractor(bg)
	got, err := Run(g.Video.Frames, det, DefaultConfig(), obs.Runtime{Pool: par.NewPool(3)})
	if err != nil {
		t.Fatal(err)
	}
	tr := New(DefaultConfig())
	for _, f := range g.Video.Frames {
		ds, err := det.Detect(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Step(f, ds); err != nil {
			t.Fatal(err)
		}
	}
	var a, b bytes.Buffer
	if err := got.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.Tracks().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if got.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("Runner tracks (%d) differ from Step tracks (%d)", got.Len(), tr.Tracks().Len())
	}
}

// TestRunnerWindowErrorOrder checks that a frame's error surfaces after
// the frames before it are tracked, whether Detect fails or the frame is
// nil.
func TestRunnerWindowErrorOrder(t *testing.T) {
	var frames []*img.Image
	for k := 0; k < 6; k++ {
		frames = append(frames, img.NewFilled(32, 24, img.RGB{R: uint8(10 * k), G: 40, B: 40}))
	}
	bg := img.NewFilled(32, 24, img.RGB{R: 0, G: 40, B: 40})
	det := detect.NewBGSubtractor(bg)

	r := NewRunner(failAt{det, frames[3]}, DefaultConfig(), obs.Runtime{Pool: par.NewPool(2)})
	if err := r.Window(frames); err == nil || err.Error() != "detector failed" {
		t.Fatalf("err = %v, want the detector's", err)
	}
	if r.tr.frame != 3 {
		t.Fatalf("tracked %d frames before the failing one, want 3", r.tr.frame)
	}

	withNil := append(append([]*img.Image(nil), frames[:2]...), nil, frames[2])
	r = NewRunner(failAt{det, frames[5]}, DefaultConfig(), obs.Runtime{Pool: par.NewPool(2)})
	if err := r.Window(withNil); err == nil || err.Error() != "track: nil frame" {
		t.Fatalf("err = %v, want the nil-frame error", err)
	}
	if r.tr.frame != 2 {
		t.Fatalf("tracked %d frames before the nil one, want 2", r.tr.frame)
	}
}

// spanCounting wraps a detector as a stand-in for one that reports under
// a stage span (obs.SpanSetter): every Detect call, made from a pool
// worker, adds one to the span it was last rebound to.
type spanCounting struct {
	detect.Detector
	span *obs.Span
}

func (d *spanCounting) SetSpan(s *obs.Span) { d.span = s }

func (d *spanCounting) Detect(frame *img.Image) ([]detect.Detection, error) {
	d.span.Add("detect_calls", 1)
	return d.Detector.Detect(frame)
}

// TestRunnerSpansPerWindow checks that each window opens its own detect
// span around the pooled detection and its own track span around the
// serial fold, in that order and without overlap, that the detector is
// rebound to each window's detect span, and that the counters total the
// clip.
func TestRunnerSpansPerWindow(t *testing.T) {
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
	det := &spanCounting{Detector: detect.NewBGSubtractor(bg)}
	tr := obs.NewTrace("run")
	r := NewRunner(det, DefaultConfig(), obs.Runtime{Pool: par.NewPool(3), Span: tr.Root()})
	frames := g.Video.Frames
	sizes := []int{16, 16, 8}
	for start, i := 0, 0; start < len(frames); start, i = start+16, i+1 {
		end := min(start+16, len(frames))
		if end-start != sizes[i] {
			t.Fatalf("window %d has %d frames, want %d", i, end-start, sizes[i])
		}
		if err := r.Window(frames[start:end]); err != nil {
			t.Fatal(err)
		}
	}
	set, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	rep := tr.Report()

	var names []string
	for _, c := range rep.Span.Children {
		names = append(names, c.Name)
	}
	want := []string{"detect", "track", "detect", "track", "detect", "track"}
	if !slices.Equal(names, want) {
		t.Fatalf("root children %v, want %v", names, want)
	}
	for i, c := range rep.Span.Children {
		if i > 0 {
			prev := rep.Span.Children[i-1]
			if c.StartNS < prev.StartNS+prev.DurationNS {
				t.Errorf("span %d (%s) starts at %d ns, before span %d ends at %d ns",
					i, c.Name, c.StartNS, i-1, prev.StartNS+prev.DurationNS)
			}
		}
		n := int64(sizes[i/2])
		switch c.Name {
		case "detect":
			if got := c.Counters[obs.CFramesDetected]; got != n {
				t.Errorf("window %d: %s = %d, want %d", i/2, obs.CFramesDetected, got, n)
			}
			if got := c.Counters["detect_calls"]; got != n {
				t.Errorf("window %d: the detector reported %d calls to its detect span, want %d", i/2, got, n)
			}
		case "track":
			if got := c.Counters[obs.CFramesTracked]; got != n {
				t.Errorf("window %d: %s = %d, want %d", i/2, obs.CFramesTracked, got, n)
			}
		}
	}

	var dets int64
	for _, f := range frames {
		ds, err := det.Detector.Detect(f)
		if err != nil {
			t.Fatal(err)
		}
		dets += int64(len(ds))
	}
	totals := map[string]int64{
		obs.CFramesDetected:  40,
		obs.CFramesTracked:   40,
		obs.CDetections:      dets,
		obs.CTracksConfirmed: int64(set.Len()),
		"detect_calls":       40,
	}
	if !maps.Equal(rep.Counters, totals) {
		t.Fatalf("counters %v, want %v", rep.Counters, totals)
	}
	if got := rep.Span.Counters[obs.CTracksConfirmed]; got != int64(set.Len()) || got == 0 {
		t.Fatalf("root span %s = %d, want %d", obs.CTracksConfirmed, got, set.Len())
	}
}

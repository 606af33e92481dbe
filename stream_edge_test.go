package verro

// End-of-stream and boundary-condition tests for the windowed pipeline: the
// cases where window arithmetic is most likely to go wrong are clips shorter
// than the background sampler's 9-frame clamp, final windows smaller than
// the budget, tracker state that must survive a window boundary (an object
// whose track ends mid-window, so its miss-aging spans windows), and a
// source that breaks the window contract.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"verro/internal/geom"
	"verro/internal/img"
	"verro/internal/stream"
	"verro/internal/vid"
)

// tinyEquivalence runs whole-clip and windowed sanitization of the same clip
// and requires identical tracks and synthetic frames, returning the windowed
// result for further ledger checks. Both runs sanitize the whole-clip
// run's tracks.
func tinyEquivalence(t *testing.T, v *Video, window int) *Result {
	t.Helper()
	tracks, err := DetectAndTrack(v, DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	pcfg := DefaultPipelineConfig()
	pcfg.WindowFrames = window
	windowTracks, err := DetectAndTrack(v, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tracks, windowTracks) {
		t.Fatal("windowed track recovery differs from the whole-clip run")
	}

	cfg := DefaultConfig()
	cfg.Seed = 11
	whole, err := Sanitize(v, tracks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := cfg
	wcfg.WindowFrames = window
	windowed, err := Sanitize(v, tracks, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(whole.Synthetic.Frames) != len(windowed.Synthetic.Frames) {
		t.Fatalf("frame count: whole clip %d, windowed %d", len(whole.Synthetic.Frames), len(windowed.Synthetic.Frames))
	}
	for i := range whole.Synthetic.Frames {
		if !whole.Synthetic.Frames[i].Equal(windowed.Synthetic.Frames[i]) {
			t.Fatalf("frame %d differs between whole-clip and windowed runs", i)
		}
	}
	if whole.Epsilon != windowed.Epsilon {
		t.Fatalf("epsilon: whole clip %v, windowed %v", whole.Epsilon, windowed.Epsilon)
	}
	return windowed
}

// shortClip generates a scaled MOT01 clip of exactly n frames.
func shortClip(t *testing.T, n int) *Video {
	t.Helper()
	preset, err := BenchmarkPreset("MOT01")
	if err != nil {
		t.Fatal(err)
	}
	p := preset.Scaled(equivScale)
	p.Frames = n
	p.Name = fmt.Sprintf("edge-%d", n)
	g, err := GenerateBenchmark(p)
	if err != nil {
		t.Fatal(err)
	}
	return g.Video
}

// TestStreamShortClip streams a clip shorter than the background sampler's
// 9-frame clamp (detect.AutoStep retains at least 9 samples when it can):
// with 5 frames every frame is a background sample and the final window is
// the whole clip.
func TestStreamShortClip(t *testing.T) {
	v := shortClip(t, 5)
	res := tinyEquivalence(t, v, 2)
	if len(res.Windows) != 3 {
		t.Fatalf("5 frames at window 2 should make 3 ledger windows, got %d", len(res.Windows))
	}
}

// TestStreamPartialFinalWindow checks the last window carrying fewer frames
// than the budget: 21 frames at window 9 must partition 9/9/3 in the ledger
// and still match the whole-clip output.
func TestStreamPartialFinalWindow(t *testing.T) {
	v := shortClip(t, 21)
	res := tinyEquivalence(t, v, 9)
	var sizes []int
	for _, w := range res.Windows {
		sizes = append(sizes, w.Frames)
	}
	if !reflect.DeepEqual(sizes, []int{9, 9, 3}) {
		t.Fatalf("ledger window sizes = %v, want [9 9 3]", sizes)
	}
}

// TestStreamTrackerHandoff exercises tracker state across a window
// boundary: a single bright object crosses the clip and disappears
// mid-window (frame 14 of 24 at window 8, so its post-exit miss-aging spans
// the second and third windows). The windowed tracker must report exactly
// the whole-clip tracker's tracks, and the object's recovered track must
// end around its true exit, not at a window boundary.
func TestStreamTrackerHandoff(t *testing.T) {
	const (
		w, h     = 64, 48
		nFrames  = 24
		lastSeen = 13 // object present in frames 0..13, gone from 14 on
		window   = 8
	)
	v := NewVideo("handoff", w, h, 30)
	bg := img.RGB{R: 40, G: 40, B: 40}
	fg := img.RGB{R: 230, G: 220, B: 90}
	for i := 0; i < nFrames; i++ {
		f := img.NewFilled(w, h, bg)
		if i <= lastSeen {
			x := 4 + i*2
			f.Fill(geom.R(x, 16, x+10, 30), fg)
		}
		v.Frames = append(v.Frames, f)
	}

	whole, err := DetectAndTrack(v, DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	pcfg := DefaultPipelineConfig()
	pcfg.WindowFrames = window
	streamed, err := DetectAndTrack(v, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(whole, streamed) {
		t.Fatal("windowed tracks differ from the whole-clip run across the exit boundary")
	}
	if len(streamed.Tracks) != 1 {
		t.Fatalf("expected 1 recovered track, got %d", len(streamed.Tracks))
	}
	tr := streamed.Tracks[0]
	first, last, ok := tr.Span()
	if !ok {
		t.Fatal("recovered track is empty")
	}
	if first > 2 {
		t.Fatalf("track starts at frame %d, expected near 0", first)
	}
	if last < lastSeen-1 || last > lastSeen {
		t.Fatalf("track ends at frame %d, expected the true exit around %d (not a window boundary)", last, lastSeen)
	}
}

// emptyRunSource returns one run with no frames when its wrapped source
// reaches frame at, then reads on as if nothing had happened.
type emptyRunSource struct {
	stream.Source
	at, next int
	done     bool
}

func (s *emptyRunSource) Next(budget int) ([]*img.Image, int, error) {
	if !s.done && s.next == s.at {
		s.done = true
		return nil, s.at, nil
	}
	frames, start, err := s.Source.Next(budget)
	s.next = start + len(frames)
	return frames, start, err
}

// TestStreamEmptyRunFails feeds DetectAndTrackStream and SanitizeStream a
// source that returns an empty run at frame 16 of a 40-frame clip, before
// io.EOF. Such a source is broken (one that kept doing it would never end),
// and both must refuse it with the same error rather than track or publish
// around it.
func TestStreamEmptyRunFails(t *testing.T) {
	v := shortClip(t, 40)
	tracks, err := DetectAndTrack(v, DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := func() StreamSource {
		return &emptyRunSource{Source: stream.NewSliceSource(vid.MetaOf(v), v.Frames), at: 16}
	}
	const want = "stream: source returned an empty window at frame 16"

	pcfg := DefaultPipelineConfig()
	pcfg.WindowFrames = 8
	if _, err := DetectAndTrackStream(src(), pcfg); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("DetectAndTrackStream: got %v, want the empty-window error", err)
	}
	cfg := DefaultConfig()
	cfg.WindowFrames = 8
	if _, err := SanitizeStream(src(), tracks, cfg, &stream.CollectSink{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("SanitizeStream: got %v, want the empty-window error", err)
	}
}

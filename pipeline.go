package verro

import (
	"fmt"
	"io"

	"verro/internal/detect"
	"verro/internal/img"
	"verro/internal/obs"
	"verro/internal/par"
	"verro/internal/scene"
	"verro/internal/stream"
	"verro/internal/track"
	"verro/internal/vid"
)

// PipelineConfig tunes the detection→tracking preprocessing that turns raw
// video into the sensitive-object tracks VERRO sanitizes.
type PipelineConfig struct {
	// Detector selects the detection algorithm.
	Detector DetectorKind
	// Tracker tunes the SORT-style tracker.
	Tracker track.Config
	// BackgroundStep subsamples frames for the median background model of
	// the background-subtraction detector; 0 means an automatic stride.
	BackgroundStep int
	// Style is the scene style used to train the HOG+SVM detector; it is
	// only consulted when Detector == DetectorHOGSVM.
	Style scene.Style
	// Seed drives detector training randomness.
	Seed int64
	// Workers sizes this call's worker pool (0 means GOMAXPROCS). The
	// output is bit-identical at any worker count; only wall-clock time
	// changes. The size is scoped to this call's pool — concurrent
	// DetectAndTrack calls with different Workers never interfere.
	Workers int
	// Trace, when non-nil, collects detection/tracking stage spans, counters
	// and worker-pool gauges. Nil disables all instrumentation at zero cost;
	// tracing never perturbs the output.
	Trace *Trace
	// WindowFrames bounds the frames detection and tracking process per
	// window; 0 (the default) means one whole-clip window. The tracks are
	// bit-identical at any setting.
	WindowFrames int
}

// DetectorKind selects a detection algorithm.
type DetectorKind int

// Available detectors.
const (
	// DetectorBackgroundSub is the fast background-subtraction detector,
	// appropriate for static cameras.
	DetectorBackgroundSub DetectorKind = iota
	// DetectorHOGSVM is the sliding-window HOG+SVM detector (the paper's
	// detector family); slower but camera-motion tolerant.
	DetectorHOGSVM
)

// DefaultPipelineConfig uses background subtraction with default tracking.
func DefaultPipelineConfig() PipelineConfig {
	return PipelineConfig{
		Detector: DetectorBackgroundSub,
		Tracker:  track.DefaultConfig(),
		Style:    scene.StyleSquare,
		Seed:     1,
	}
}

// DetectAndTrack runs detection and tracking over the video and returns
// the recovered object tracks — the preprocessing stage of Figure 2. It
// adapts the in-memory clip onto DetectAndTrackStream through a slice
// source.
func DetectAndTrack(v *Video, cfg PipelineConfig) (*TrackSet, error) {
	if v == nil {
		return nil, fmt.Errorf("verro: empty video")
	}
	return DetectAndTrackStream(stream.NewSliceSource(vid.MetaOf(v), v.Frames), cfg)
}

// DetectAndTrackStream runs detection and tracking over a frame source in
// windows of cfg.WindowFrames frames. The background-subtraction detector
// needs its median background before any detection, so that path makes two
// passes: a sampling pass retaining only the ~40 strided frames the
// temporal median consumes, a Reset, then a windowed detect-and-track pass.
// The HOG+SVM detector is model-driven and needs a single pass. Tracks are
// bit-identical at any window size: the sample stack, the per-frame
// detections, and the tracker step order do not depend on the windowing.
func DetectAndTrackStream(src stream.Source, cfg PipelineConfig) (*TrackSet, error) {
	meta := src.Meta()
	if meta.Frames == 0 {
		return nil, fmt.Errorf("verro: empty video")
	}
	pool := par.NewPool(cfg.Workers)
	cfg.Trace.AttachPool(pool)
	root := cfg.Trace.Root()
	var det detect.Detector
	switch cfg.Detector {
	case DetectorHOGSVM:
		d, err := detect.NewPedestrianDetector(cfg.Style, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("verro: build detector: %w", err)
		}
		d.RT = obs.Runtime{Pool: pool}
		det = d
	case DetectorBackgroundSub:
		step := cfg.BackgroundStep
		if step <= 0 {
			step = detect.AutoStep(meta.Frames)
		}
		bgSpan := root.Child("background")
		bg, err := medianBackgroundStream(src, cfg.WindowFrames, step, obs.Runtime{Pool: pool, Span: bgSpan})
		bgSpan.End()
		if err != nil {
			return nil, fmt.Errorf("verro: background model: %w", err)
		}
		if err := src.Reset(); err != nil {
			return nil, fmt.Errorf("verro: rewind for detection pass: %w", err)
		}
		det = detect.NewBGSubtractor(bg)
	default:
		return nil, fmt.Errorf("verro: unknown detector %d", cfg.Detector)
	}
	runner := track.NewRunner(det, cfg.Tracker, obs.Runtime{Pool: pool, Span: root})
	err := forEachWindow(src, cfg.WindowFrames, func(frames []*img.Image, _ int) error {
		return runner.Window(frames)
	})
	if err != nil {
		return nil, fmt.Errorf("verro: tracking: %w", err)
	}
	tracks, err := runner.Finish()
	if err != nil {
		return nil, fmt.Errorf("verro: tracking: %w", err)
	}
	return tracks, nil
}

// medianBackgroundStream computes the background-subtraction median model
// from a bounded sampling pass: it retains only every step-th frame — at
// most ~40 under detect.AutoStep — and feeds them to detect.MedianBackground
// with step 1, which stacks the same samples a strided median over the
// whole clip would.
func medianBackgroundStream(src stream.Source, window, step int, rt obs.Runtime) (*Image, error) {
	if step < 1 {
		step = 1
	}
	var samples []*img.Image
	err := forEachWindow(src, window, func(frames []*img.Image, start int) error {
		for i, f := range frames {
			if (start+i)%step == 0 {
				samples = append(samples, f)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return detect.MedianBackground(samples, 1, rt)
}

// forEachWindow drains the source in runs of at most window frames
// (window <= 0 means one whole-clip run), invoking fn with each run and its
// absolute start index.
func forEachWindow(src stream.Source, window int, fn func([]*img.Image, int) error) error {
	for {
		frames, start, err := src.Next(window)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(frames, start); err != nil {
			return err
		}
	}
}

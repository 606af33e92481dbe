package core

import (
	"fmt"
	"math/rand"

	"verro/internal/inpaint"
	"verro/internal/keyframe"
	"verro/internal/ldp"
	"verro/internal/motio"
	"verro/internal/obs"
	"verro/internal/stream"
	"verro/internal/vid"
)

// Config is the end-to-end sanitizer configuration.
type Config struct {
	Phase1   Phase1Config
	Phase2   Phase2Config
	Keyframe keyframe.Config
	Inpaint  inpaint.Config
	// BackgroundStep subsamples frames feeding the temporal background
	// median; 0 means detect.AutoStep, a stride that samples ~40 frames and
	// never fewer than 9.
	BackgroundStep int
	// Seed drives all randomness in the run.
	Seed int64
	// Workers sizes this run's worker pool (0 means GOMAXPROCS). All
	// randomness is drawn on the coordinating goroutine, so the sanitized
	// output is bit-identical at any worker count. The size is scoped to
	// this run's pool — concurrent Sanitize calls with different Workers
	// never interfere.
	Workers int
	// Trace, when non-nil, collects a span per pipeline stage plus stage
	// counters and worker-pool gauges. Nil (the default) disables all
	// instrumentation at zero cost; tracing never perturbs the seeded output.
	Trace *obs.Trace
	// WindowFrames bounds the frames the streaming driver processes per
	// window; 0 (the default) means one whole-clip window. The output is
	// bit-identical at any setting for the same seed: all randomness is
	// drawn on the coordinator in an order independent of the windowing.
	WindowFrames int
	// PerClass sanitizes each object class on its own (paper Section 5,
	// "Multiple Object Types"): the driver partitions the tracks by class
	// label and runs Phase I and the Phase II plan once per class, so every
	// class is ε-indistinguishable within itself, then renders one
	// synthetic video holding every class's sprites. Each class is drawn as
	// its label's sprite family; Phase2.Class is not consulted.
	PerClass bool
}

// DefaultConfig assembles the defaults of every stage.
func DefaultConfig() Config {
	return Config{
		Phase1:   DefaultPhase1Config(),
		Phase2:   DefaultPhase2Config(),
		Keyframe: keyframe.DefaultConfig(),
		Inpaint:  inpaint.DefaultConfig(),
		Seed:     1,
	}
}

// Validate rejects configurations whose privacy parameters are outside
// their mathematical domain. The sanitizers call it on entry so an invalid
// flip probability fails fast instead of surfacing after minutes of
// key-frame extraction and background reconstruction.
func (c Config) Validate() error {
	return c.Phase1.Validate()
}

// Result is the sanitizer output: the publishable synthetic video plus the
// diagnostics the evaluation harness consumes.
type Result struct {
	Synthetic *vid.Video
	// SyntheticTracks are the rendered synthetic objects; they exist for
	// utility evaluation and never leave the video owner.
	SyntheticTracks *motio.TrackSet
	// Phase1 is the run's Phase I result; it is nil under Config.PerClass,
	// where PerClass holds one per class.
	Phase1         *Phase1Result
	Phase2         *Phase2Result
	KeyframeResult *keyframe.Result
	// PerClass maps each class label to its Phase I result under
	// Config.PerClass; it is nil in a plain run.
	PerClass map[string]*Phase1Result
	// Epsilon is the achieved ε-Object Indistinguishability level: under
	// Config.PerClass, the largest per-class ε, since each class is
	// ε_class-indistinguishable within itself.
	Epsilon float64
	// Scenes is the reconstructed background the synthetic frames were
	// rendered over (nil under Phase2.SkipRender), the middle panel of the
	// paper's Figures 9-11.
	Scenes inpaint.Scenes
	// Windows is the per-window privacy ledger: one entry per render window
	// (a single entry when WindowFrames is 0), whose integer picked
	// key-frame counts sum to len(Phase1.Picked) and whose ε entries
	// recompose to exactly Epsilon. Under Config.PerClass each window has
	// one entry per class, ordered by window and then by class, and each
	// class's entries recompose to that class's ε. See DESIGN.md §2g.
	Windows []WindowSpend
}

// WindowSpend attributes Phase I privacy budget to one streaming render
// window: the picked key frames falling inside [Start, Start+Frames) and
// the ε they account for. The ledger is exact, not approximate — budget is
// apportioned by integer key-frame counts, and the total is recomputed as
// K·ln((2−f)/f) over the summed count, the same closed form ldp.Epsilon
// uses, so the recomposed total equals the run's ε bit for bit.
type WindowSpend struct {
	Start, Frames int
	// Class names the class the entry accounts for under Config.PerClass;
	// it is empty in a plain run.
	Class   string `json:",omitempty"`
	Picked  int
	Epsilon float64
}

// autoSegmentCfg resolves the MaxSegmentLen auto-clamp for a clip of the
// given length: 0 means auto (cap segments at ~1/20 of the video so static
// scenes still produce enough key frames for the optimizer and the Phase II
// interpolation — pure Algorithm 2 would otherwise collapse a static video
// into a single segment), negative disables the cap.
func autoSegmentCfg(kfCfg keyframe.Config, clipLen int) keyframe.Config {
	switch {
	case kfCfg.MaxSegmentLen == 0:
		kfCfg.MaxSegmentLen = clipLen / 20
		if kfCfg.MaxSegmentLen < 1 {
			kfCfg.MaxSegmentLen = 1
		}
	case kfCfg.MaxSegmentLen < 0:
		kfCfg.MaxSegmentLen = 0
	}
	return kfCfg
}

// runPhase1Stage runs Phase I with its span bookkeeping: presence-vector
// reduction, the randomized mechanism, and the post-hoc counters (picked
// key frames; randomized-response flips as the Hamming distance between the
// budgeted vectors B* and the published vectors R), added to the caller's
// "phase1" span. SanitizeStreamFrom runs it once per track group (once in a
// plain run, once per class under Config.PerClass), all adding to one span.
func runPhase1Stage(tracks *motio.TrackSet, clipLen int, kf *keyframe.Result, cfg Phase1Config, rng *rand.Rand, p1Span *obs.Span) (*Phase1Result, error) {
	full := PresenceVectors(tracks, clipLen)
	reduced, err := ReduceToKeyFrames(full, kf.KeyFrames)
	if err != nil {
		return nil, err
	}
	p1, err := RunPhase1(reduced, kf.KeyFrames, cfg, rng)
	if err != nil {
		return nil, fmt.Errorf("core: phase 1: %w", err)
	}
	p1Span.Add(obs.CKeyFramesPicked, int64(len(p1.Picked)))
	var flips int64
	for i := range p1.Output {
		flips += int64(ldp.Hamming(p1.Optimal[i], p1.Output[i]))
	}
	p1Span.Add(obs.CRRBitsFlipped, flips)
	return p1, nil
}

// Sanitize runs the full VERRO pipeline over an in-memory clip: key-frame
// extraction, background reconstruction, Phase I and Phase II. It adapts
// the clip onto the streaming driver (see SanitizeStream) — a slice source
// in, a collecting sink out — and completes the Result with the assembled
// synthetic video. The input video and tracks are not modified.
func Sanitize(v *vid.Video, tracks *motio.TrackSet, cfg Config) (*Result, error) {
	if v == nil {
		return nil, fmt.Errorf("core: empty input video")
	}
	// Under SkipRender the driver leaves the sink untouched.
	sink := &stream.CollectSink{}
	res, err := SanitizeStream(stream.NewSliceSource(vid.MetaOf(v), v.Frames), tracks, cfg, sink)
	if err != nil {
		return nil, err
	}
	if !cfg.Phase2.SkipRender {
		out := vid.New(v.Name+"-verro", v.W, v.H, v.FPS)
		out.Moving = v.Moving
		out.Frames = sink.Frames
		res.Synthetic = out
	}
	return res, nil
}

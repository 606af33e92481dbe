// Package exp implements the paper's evaluation (Section 6): it loads the
// benchmark datasets and regenerates every table and figure — Table 1-3,
// Figure 5 (utility of Phase I & II), Figures 6-8 (trajectories),
// Figures 9-11 (representative frames), Figures 12-13 (aggregate counts) —
// plus the naive-random-response baseline and the ablations called out in
// DESIGN.md. Both cmd/experiments and the root bench harness drive this
// package.
package exp

import (
	"fmt"
	"math/rand"

	"verro"
	"verro/internal/core"
	"verro/internal/keyframe"
	"verro/internal/ldp"
	"verro/internal/motio"
	"verro/internal/obs"
	"verro/internal/scene"
)

// Options control dataset loading and experiment effort.
type Options struct {
	// Scale shrinks the presets (1 = the full paper-sized datasets).
	Scale float64
	// Trials is the number of random-response repetitions averaged in the
	// Figure 5 curves.
	Trials int
	// Seed drives all experiment randomness.
	Seed int64
	// UseTrackedObjects runs the real detection+tracking pipeline instead
	// of using ground-truth tracks. Slower and noisier; ground truth is
	// the default so table shapes are attributable to VERRO itself.
	UseTrackedObjects bool
	// Trace, when non-nil, collects stage spans and counters across dataset
	// loading and every sanitizer run the experiments perform. Nil disables
	// instrumentation; tracing never perturbs seeded results.
	Trace *obs.Trace
}

// segmentCap is frames-per-key-frame for each base preset at full scale:
// the full-scale frame count over the ℓ of the paper's Table 2 (22 of 450,
// 52 of 1500, 48 of 1194). Keeping the ratio rather than the absolute count
// makes scaled-down datasets behave like the full ones.
var segmentCap = map[string]int{
	"MOT01": 450 / 22,
	"MOT03": 1500 / 52,
	"MOT06": 1194 / 48,
}

// KeyframeConfigFor returns the Algorithm 2 configuration used for a
// preset: defaults plus a segment-length cap reproducing the paper's
// key-frame density for that video (scale-invariant).
func KeyframeConfigFor(p scene.Preset) keyframe.Config {
	cfg := keyframe.DefaultConfig()
	cap := 0
	for name, c := range segmentCap {
		if len(p.Name) >= len(name) && p.Name[:len(name)] == name {
			cap = c
		}
	}
	if cap == 0 {
		cap = 20
	}
	// Tiny test datasets still need at least a handful of key frames.
	if p.Frames/cap < 3 {
		cap = p.Frames / 3
	}
	if cap < 1 {
		cap = 1
	}
	cfg.MaxSegmentLen = cap
	return cfg
}

// Dataset is a loaded benchmark video with its objects and segmentation.
type Dataset struct {
	Preset  scene.Preset
	Gen     *scene.Generated
	Tracks  *motio.TrackSet
	KF      *keyframe.Result
	Reduced []ldp.BitVector
	KFCfg   keyframe.Config
	// Trace is propagated from Options into every SanitizerConfig built
	// from this dataset (nil = untraced).
	Trace *obs.Trace
}

// LoadDataset generates (or regenerates) a benchmark dataset and its
// preprocessing products.
func LoadDataset(p scene.Preset, opt Options) (*Dataset, error) {
	if opt.Scale > 0 && opt.Scale < 1 {
		p = p.Scaled(opt.Scale)
	}
	g, err := scene.Generate(p)
	if err != nil {
		return nil, fmt.Errorf("exp: generate %s: %w", p.Name, err)
	}
	// The clean-background oracle is test-only; drop it to halve memory.
	g.CleanBackground = nil

	tracks := g.Truth
	if opt.UseTrackedObjects {
		pcfg := verro.DefaultPipelineConfig()
		pcfg.Trace = opt.Trace
		tracked, err := verro.DetectAndTrack(g.Video, pcfg)
		if err != nil {
			return nil, fmt.Errorf("exp: detect and track %s: %w", p.Name, err)
		}
		tracks = tracked
	}

	kfCfg := KeyframeConfigFor(p)
	kfSpan := opt.Trace.Root().Child("keyframes")
	kf, err := keyframe.Extract(g.Video, kfCfg, obs.Runtime{Span: kfSpan})
	kfSpan.End()
	if err != nil {
		return nil, fmt.Errorf("exp: key frames for %s: %w", p.Name, err)
	}
	full := core.PresenceVectors(tracks, g.Video.Len())
	reduced, err := core.ReduceToKeyFrames(full, kf.KeyFrames)
	if err != nil {
		return nil, err
	}
	return &Dataset{
		Preset:  p,
		Gen:     g,
		Tracks:  tracks,
		KF:      kf,
		Reduced: reduced,
		KFCfg:   kfCfg,
		Trace:   opt.Trace,
	}, nil
}

// SanitizerConfig assembles the core.Config this dataset's experiments use.
func (d *Dataset) SanitizerConfig(f float64, seed int64, render bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.Phase1.F = f
	cfg.Keyframe = d.KFCfg
	cfg.Seed = seed
	cfg.Phase2.SkipRender = !render
	cfg.Trace = d.Trace
	return cfg
}

// phase1 runs Phase I over the dataset's reduced vectors.
func (d *Dataset) phase1(f float64, optimize bool, rng *rand.Rand) (*core.Phase1Result, error) {
	cfg := core.Phase1Config{F: f, Optimize: optimize, MinPicked: 2}
	return core.RunPhase1(d.Reduced, d.KF.KeyFrames, cfg, rng)
}

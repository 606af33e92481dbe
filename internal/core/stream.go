package core

import (
	"fmt"
	"math"
	"math/rand"

	"verro/internal/detect"
	"verro/internal/img"
	"verro/internal/inpaint"
	"verro/internal/keyframe"
	"verro/internal/motio"
	"verro/internal/obs"
	"verro/internal/par"
	"verro/internal/stream"
)

// The sanitization driver. SanitizeStream runs the VERRO pipeline without
// holding the whole clip: the input flows through an analysis pass in
// windows of cfg.WindowFrames frames, the analysis retains only clip-length
// *metadata* (per-frame HSV histograms, pan offsets) plus the ~40 strided
// background samples detect.AutoStep bounds, and Phase II renders window by
// window straight into a sink. Sanitize and SanitizeMultiType are adapters
// over the same code.
//
// The output is identical at every window size by construction:
//
//   - every per-frame analysis quantity (histogram, column profile, strided
//     sample) is a pure function of its frame, folded in frame order;
//   - every random draw (Phase I randomized response and Laplace noise,
//     Phase II assignment and palette offset) happens on the coordinator
//     between the two passes, in an order independent of the windowing;
//   - rendering a planned frame is pure, and the windowed VVF writer emits
//     the same byte stream as the whole-clip encoder for any append
//     granularity.
//
// Peak live memory is O(WindowFrames + samples), which the memory-ceiling
// test in stream_mem_test.go holds roughly flat as the clip grows.

// windowSpan lands one window's counters on parent and opens its
// "window@start" child span, returning the child's End: the per-window
// progress observable traces carry on both the analysis and render passes.
func windowSpan(parent *obs.Span, start, frames int) func() {
	parent.Add(obs.CWindows, 1)
	parent.Add(obs.CWindowFrames, int64(frames))
	return parent.Child(fmt.Sprintf("window@%d", start)).End
}

// windowSpend attributes Phase I budget to the render window [lo, hi): the
// picked key frames falling inside it, at ln((2−f)/f) each. Summing the
// integer Picked fields over all windows recovers len(p1.Picked) exactly,
// and K·ln((2−f)/f) over that sum is the same closed form ldp.Epsilon
// evaluates — so the ledger recomposes to the run's ε with no float drift.
func windowSpend(p1 *Phase1Result, lo, hi int) WindowSpend {
	picked := 0
	for _, j := range p1.Picked {
		if k := p1.KeyFrames[j]; k >= lo && k < hi {
			picked++
		}
	}
	return WindowSpend{
		Start:   lo,
		Frames:  hi - lo,
		Picked:  picked,
		Epsilon: float64(picked) * math.Log((2-p1.F)/p1.F),
	}
}

// analysis is the preprocessing a sanitizer run derives from its input
// before Phase I: the Algorithm 2 segmentation and, when the run renders,
// the per-frame background provider.
type analysis struct {
	kf     *keyframe.Result
	scenes inpaint.Scenes
}

// analyze sweeps src once in windows of cfg.WindowFrames frames, collecting
// the per-frame HSV histograms Algorithm 2 needs and, with scenes set, the
// background samples and pan offsets; it then segments the clip and
// reconstructs the background. Only metadata-sized state outlives a window:
// a few hundred bytes of histogram per frame, every step-th frame for the
// temporal median (bounded at ~40 by detect.AutoStep), one integer offset
// per frame, and the previous frame's column profile, which carries each
// pairwise pan shift across a window boundary. The sweep, the segmentation
// and the reconstruction each report under their own span beneath root:
// "analysis", "keyframes" and "inpaint".
func analyze(src stream.Source, tracks *motio.TrackSet, cfg Config, scenes bool, pool *par.Pool, root *obs.Span) (*analysis, error) {
	meta := src.Meta()
	kfCfg := autoSegmentCfg(cfg.Keyframe, meta.Frames)
	step := cfg.BackgroundStep
	if step <= 0 {
		step = detect.AutoStep(meta.Frames)
	}
	var (
		hists   []*img.HSVHist
		samples []*img.Image
		indices []int
		offsets []int
		prev    []float64 // column profile of the last frame swept
	)
	anSpan := root.Child("analysis")
	err := stream.Each(src, cfg.WindowFrames, func(frames []*img.Image, start int) error {
		end := windowSpan(anSpan, start, len(frames))
		defer end()
		hs, err := keyframe.FrameHists(frames, kfCfg, pool)
		if err != nil {
			return err
		}
		hists = append(hists, hs...)
		if !scenes {
			return nil
		}
		for i, f := range frames {
			if k := start + i; k%step == 0 {
				samples = append(samples, f)
				indices = append(indices, k)
			}
			if !meta.Moving {
				continue
			}
			cur := inpaint.ColumnProfile(f)
			if len(offsets) == 0 {
				offsets = append(offsets, 0)
			} else {
				shift := inpaint.BestShift(prev, cur, inpaint.DefaultPanShift)
				offsets = append(offsets, offsets[len(offsets)-1]+shift)
			}
			prev = cur
		}
		return nil
	})
	anSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: analysis pass: %w", err)
	}

	an := &analysis{}
	kfSpan := root.Child("keyframes")
	an.kf, err = keyframe.SegmentHists(hists, kfCfg, obs.Runtime{Pool: pool, Span: kfSpan})
	kfSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: key frames: %w", err)
	}

	if scenes {
		inSpan := root.Child("inpaint")
		rt := obs.Runtime{Pool: pool, Span: inSpan}
		if meta.Moving {
			an.scenes, err = inpaint.BuildMovingBackgroundSamples(
				meta.W, meta.H, offsets, samples, indices, tracks, cfg.Inpaint, rt)
		} else {
			var bg *img.Image
			bg, err = inpaint.StaticBackgroundSamples(
				meta.W, meta.H, samples, indices, tracks, cfg.Inpaint, rt)
			if err == nil {
				an.scenes = inpaint.NewStaticScenes(bg)
			}
		}
		inSpan.End()
		if err != nil {
			return nil, fmt.Errorf("core: background: %w", err)
		}
	}
	return an, nil
}

// SanitizeStream runs the VERRO pipeline over a frame source in bounded
// windows of cfg.WindowFrames frames (<= 0 means one whole-clip window),
// writing the synthetic video to sink window by window. The output is
// bit-identical at every window size. The returned Result carries
// everything except Synthetic/Phase2.Video (the frames went to the sink,
// which only the caller can replay), including the per-window privacy
// ledger in Windows.
//
// sink is closed on success once all frames are appended; on error the
// caller owns whatever cleanup its sink needs. Under cfg.Phase2.SkipRender
// no frames are produced and sink may be nil (a non-nil sink is left
// untouched).
func SanitizeStream(src stream.Source, tracks *motio.TrackSet, cfg Config, sink stream.Sink) (*Result, error) {
	return SanitizeStreamFrom(src, tracks, cfg, sink, 0)
}

// SanitizeStreamFrom is SanitizeStream with a resumable window cursor:
// rendering starts at startFrame (which must sit on a window boundary) and
// only frames from there on are appended to sink — the caller owns the
// earlier frames, typically in a checkpointed staging file a previous,
// killed run left behind. Everything up to rendering reruns in full: the
// analysis pass, Phase I and the Phase II plan are recomputed from the same
// seed and consume the rng stream in exactly the same order, so the frames
// rendered for [startFrame, end) — and the returned ledger, synthetic
// tracks and ε — are bit-identical to the corresponding slice of an
// uninterrupted run. Windows before the cursor contribute their geometry
// (not their pixels) to the synthetic track fold and their ledger entries
// are recomputed, so the Result does not depend on where the run was cut.
func SanitizeStreamFrom(src stream.Source, tracks *motio.TrackSet, cfg Config, sink stream.Sink, startFrame int) (*Result, error) {
	meta := src.Meta()
	if meta.Frames == 0 {
		return nil, fmt.Errorf("core: empty input video")
	}
	if tracks == nil {
		return nil, fmt.Errorf("core: nil track set")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Phase2.SkipRender && sink == nil {
		return nil, fmt.Errorf("core: nil sink for rendering run")
	}
	windowBudget := cfg.WindowFrames
	if windowBudget <= 0 {
		windowBudget = meta.Frames
	}
	if startFrame < 0 || startFrame > meta.Frames ||
		(startFrame != meta.Frames && startFrame%windowBudget != 0) {
		return nil, fmt.Errorf("core: resume cursor %d is not a window boundary (window %d, %d frames)",
			startFrame, windowBudget, meta.Frames)
	}
	pool := par.NewPool(cfg.Workers)
	cfg.Trace.AttachPool(pool)
	root := cfg.Trace.Root()
	rng := rand.New(rand.NewSource(cfg.Seed))

	an, err := analyze(src, tracks, cfg, !cfg.Phase2.SkipRender, pool, root)
	if err != nil {
		return nil, err
	}

	p1Span := root.Child("phase1")
	p1, err := runPhase1Stage(tracks, meta.Frames, an.kf, cfg.Phase1, rng, p1Span)
	p1Span.End()
	if err != nil {
		return nil, err
	}

	// Phase II: consume the remaining rng draws into a pure render plan,
	// then render window by window into the sink.
	p2Span := root.Child("phase2")
	plan, err := planPhase2(p1, an.kf, tracks, meta.W, meta.H, meta.Frames, cfg.Phase2, rng)
	if err != nil {
		p2Span.End()
		return nil, fmt.Errorf("core: phase 2: %w", err)
	}
	asm := newPhase2Assembler(plan)
	var ledger []WindowSpend
	for lo := 0; lo < meta.Frames; lo += windowBudget {
		hi := lo + windowBudget
		if hi > meta.Frames {
			hi = meta.Frames
		}
		if hi <= startFrame {
			// Window already rendered and persisted by the run being
			// resumed: re-fold its geometry so the synthetic tracks come out
			// identical, recompute its ledger entry, and leave its pixels to
			// the caller's checkpointed staging. No window span opens — SSE
			// progress starts at the resume cursor.
			for i, fr := range plan.geometryRange(lo, hi) {
				asm.add(lo+i, fr)
			}
			ledger = append(ledger, windowSpend(p1, lo, hi))
			continue
		}
		post := windowSpan(p2Span, lo, hi-lo)
		rendered, err := plan.renderRange(an.scenes, lo, hi, obs.Runtime{Pool: pool, Span: p2Span})
		if err != nil {
			post()
			p2Span.End()
			return nil, err
		}
		frames := make([]*img.Image, 0, len(rendered))
		for i, fr := range rendered {
			asm.add(lo+i, fr)
			if fr.frame != nil {
				frames = append(frames, fr.frame)
			}
		}
		if !cfg.Phase2.SkipRender {
			if err := sink.Append(frames); err != nil {
				post()
				p2Span.End()
				return nil, fmt.Errorf("core: sink: %w", err)
			}
		}
		ledger = append(ledger, windowSpend(p1, lo, hi))
		post()
	}
	p2Span.Add(obs.CFramesRendered, int64(meta.Frames-startFrame))
	p2 := asm.finish(obs.Runtime{Pool: pool, Span: p2Span})
	p2Span.End()
	if !cfg.Phase2.SkipRender {
		if err := sink.Close(); err != nil {
			return nil, fmt.Errorf("core: sink: %w", err)
		}
	}
	return &Result{
		SyntheticTracks: p2.Tracks,
		Phase1:          p1,
		Phase2:          p2,
		KeyframeResult:  an.kf,
		Epsilon:         p1.Epsilon,
		Scenes:          an.scenes,
		Windows:         ledger,
	}, nil
}

// OutputMeta derives the sink metadata for a streaming run from the input
// metadata: same geometry and timing, and the "-verro" name suffix Sanitize
// gives its synthetic video.
func OutputMeta(in stream.Meta) stream.Meta {
	out := in
	out.Name = in.Name + "-verro"
	return out
}

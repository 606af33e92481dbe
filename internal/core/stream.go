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
	"verro/internal/scene"
	"verro/internal/stream"
)

// The sanitization driver. SanitizeStream runs the VERRO pipeline without
// holding the whole clip: the input flows through an analysis pass in
// windows of cfg.WindowFrames frames, the analysis retains only clip-length
// *metadata* (per-frame HSV histograms, pan offsets) plus the ~40 strided
// background samples detect.AutoStep bounds, and Phase II renders window by
// window straight into a sink. Sanitize is an adapter over the same code,
// and Config.PerClass runs Phase I and the Phase II plan once per object
// class before the one render.
//
// The output is identical at every window size by construction:
//
//   - every per-frame analysis quantity (histogram, column profile, strided
//     sample) is a pure function of its frame, folded in frame order;
//   - every random draw (Phase I randomized response and Laplace noise,
//     Phase II assignment and palette offset, per class under PerClass)
//     happens on the coordinator between the two passes, in an order
//     independent of the windowing;
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

// trackGroup is one unit of Phase I and the Phase II plan. A plain run is
// one group holding every track, drawn as cfg.Phase2.Class; under
// cfg.PerClass there is one group per track class label, in order of first
// appearance, drawn as classOf(label).
type trackGroup struct {
	label  string // the class label under PerClass; empty in a plain run
	class  scene.ObjectClass
	tracks *motio.TrackSet
	p1     *Phase1Result
}

// trackGroups partitions the run's tracks into its groups, keeping track
// order within a group. A run with no tracks has nothing to sanitize, in
// either mode, and fails here, before its analysis pass.
func trackGroups(tracks *motio.TrackSet, cfg Config) ([]trackGroup, error) {
	if tracks.Len() == 0 {
		return nil, fmt.Errorf("core: no objects to sanitize")
	}
	if !cfg.PerClass {
		return []trackGroup{{class: cfg.Phase2.Class, tracks: tracks}}, nil
	}
	var groups []trackGroup
	index := map[string]int{}
	for _, t := range tracks.Tracks {
		i, ok := index[t.Class]
		if !ok {
			i = len(groups)
			index[t.Class] = i
			groups = append(groups, trackGroup{label: t.Class, class: classOf(t.Class), tracks: motio.NewTrackSet()})
		}
		groups[i].tracks.Add(t)
	}
	return groups, nil
}

// classOf maps a track's class label to the sprite family.
func classOf(label string) scene.ObjectClass {
	if label == scene.Vehicle.String() {
		return scene.Vehicle
	}
	return scene.Pedestrian
}

// windowSpend attributes a group's Phase I budget to the render window
// [lo, hi): the picked key frames falling inside it, at ln((2−f)/f) each.
// Summing the integer Picked fields of the group's entries over all
// windows recovers len(p1.Picked) exactly, and K·ln((2−f)/f) over that sum
// is the same closed form ldp.Epsilon evaluates — so the ledger recomposes
// to the group's ε with no float drift.
func windowSpend(g *trackGroup, lo, hi int) WindowSpend {
	picked := 0
	for _, j := range g.p1.Picked {
		if k := g.p1.KeyFrames[j]; k >= lo && k < hi {
			picked++
		}
	}
	return WindowSpend{
		Start:   lo,
		Frames:  hi - lo,
		Class:   g.label,
		Picked:  picked,
		Epsilon: float64(picked) * math.Log((2-g.p1.F)/g.p1.F),
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
	step := detect.AutoStep(meta.Frames)
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
// everything except Synthetic (the frames went to the sink, which only the
// caller can replay), including the per-window privacy ledger in Windows.
// Under cfg.PerClass each object class gets its own Phase I and Phase II
// plan and one render draws them all (see Config.PerClass).
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
	groups, err := trackGroups(tracks, cfg)
	if err != nil {
		return nil, err
	}
	// classErr names the failing class under PerClass; a plain run's errors
	// read unchanged.
	classErr := func(g *trackGroup, err error) error {
		if !cfg.PerClass {
			return err
		}
		return fmt.Errorf("core: class %q: %w", g.label, err)
	}
	pool := par.NewPool(0)
	cfg.Trace.AttachPool(pool)
	root := cfg.Trace.Root()
	rng := rand.New(rand.NewSource(cfg.Seed))

	an, err := analyze(src, tracks, cfg, !cfg.Phase2.SkipRender, pool, root)
	if err != nil {
		return nil, err
	}

	// Phase I for every group, in group order, then every group's Phase II
	// plan: a one-group run draws exactly what a plain run draws.
	p1Span := root.Child("phase1")
	for i := range groups {
		g := &groups[i]
		if g.p1, err = runPhase1Stage(g.tracks, meta.Frames, an.kf, cfg.Phase1, rng, p1Span); err != nil {
			p1Span.End()
			return nil, classErr(g, err)
		}
	}
	p1Span.End()

	// Phase II: consume the remaining rng draws into pure render plans,
	// merge them into one, then render window by window into the sink.
	p2Span := root.Child("phase2")
	plans := make([]*phase2Plan, len(groups))
	for i := range groups {
		g := &groups[i]
		p2cfg := cfg.Phase2
		p2cfg.Class = g.class
		if plans[i], err = planPhase2(g.p1, an.kf, g.tracks, meta.W, meta.H, meta.Frames, p2cfg, rng); err != nil {
			p2Span.End()
			return nil, classErr(g, fmt.Errorf("core: phase 2: %w", err))
		}
	}
	plan := mergePlans(plans)
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
			for i := range groups {
				ledger = append(ledger, windowSpend(&groups[i], lo, hi))
			}
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
		for i := range groups {
			ledger = append(ledger, windowSpend(&groups[i], lo, hi))
		}
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
	res := &Result{
		SyntheticTracks: p2.Tracks,
		Phase2:          p2,
		KeyframeResult:  an.kf,
		Scenes:          an.scenes,
		Windows:         ledger,
	}
	if !cfg.PerClass {
		res.Phase1 = groups[0].p1
		res.Epsilon = res.Phase1.Epsilon
		return res, nil
	}
	res.PerClass = make(map[string]*Phase1Result, len(groups))
	for _, g := range groups {
		res.PerClass[g.label] = g.p1
		res.Epsilon = max(res.Epsilon, g.p1.Epsilon)
	}
	return res, nil
}

// OutputMeta derives the sink metadata for a streaming run from the input
// metadata: same geometry and timing, and the "-verro" name suffix Sanitize
// gives its synthetic video.
func OutputMeta(in stream.Meta) stream.Meta {
	out := in
	out.Name = in.Name + "-verro"
	return out
}

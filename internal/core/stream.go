package core

import (
	"fmt"
	"math"
	"math/rand"
	"time"

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

// histStage accumulates the per-frame HSV histograms Algorithm 2 needs —
// a few hundred bytes per frame, so clip-length retention stays metadata-
// sized while the pixels flow through unretained.
type histStage struct {
	cfg   keyframe.Config
	pool  *par.Pool
	hists []*img.HSVHist
}

func (s *histStage) Name() string { return "hist" }
func (s *histStage) Overlap() int { return 0 }
func (s *histStage) Flush() error { return nil }
func (s *histStage) Process(w stream.Window) error {
	hs, err := keyframe.FrameHists(w.FreshFrames(), s.cfg, s.pool)
	if err != nil {
		return err
	}
	s.hists = append(s.hists, hs...)
	return nil
}

// bgSampleStage retains every step-th frame for the temporal background
// median — the same `k % step == 0` stride inpaint.StaticBackground walks,
// bounded at ~40 samples by detect.AutoStep whatever the clip length.
type bgSampleStage struct {
	step    int
	samples []*img.Image
	indices []int
}

func (s *bgSampleStage) Name() string { return "bgsample" }
func (s *bgSampleStage) Overlap() int { return 0 }
func (s *bgSampleStage) Flush() error { return nil }
func (s *bgSampleStage) Process(w stream.Window) error {
	for i, f := range w.FreshFrames() {
		k := w.FreshStart() + i
		if k%s.step == 0 {
			s.samples = append(s.samples, f)
			s.indices = append(s.indices, k)
		}
	}
	return nil
}

// panStage integrates per-frame pan offsets for moving-camera clips. Each
// pairwise shift needs the previous frame's column profile; the stage
// declares Overlap() == 1 and recomputes that profile from the re-presented
// overlap frame instead of retaining pixels across windows, so its state
// between windows is just the integer offsets.
type panStage struct {
	maxShift int
	offsets  []int
}

func (s *panStage) Name() string { return "pan" }
func (s *panStage) Overlap() int { return 1 }
func (s *panStage) Flush() error { return nil }
func (s *panStage) Process(w stream.Window) error {
	profiles := make([][]float64, len(w.Frames))
	for i, f := range w.Frames {
		profiles[i] = inpaint.ColumnProfile(f)
	}
	for i := w.Fresh; i < len(w.Frames); i++ {
		if w.Start+i == 0 {
			s.offsets = append(s.offsets, 0)
			continue
		}
		shift := inpaint.BestShift(profiles[i-1], profiles[i], s.maxShift)
		s.offsets = append(s.offsets, s.offsets[len(s.offsets)-1]+shift)
	}
	return nil
}

// windowHook builds a stream.Run per-window hook that opens a child span
// per window under parent and lands the window counters, giving traces a
// per-window progress observable on both the analysis and render passes.
func windowHook(parent *obs.Span) func(stream.Window) func() {
	return func(w stream.Window) func() {
		parent.Add(obs.CWindows, 1)
		parent.Add(obs.CWindowFrames, int64(len(w.Frames)))
		child := parent.Child(fmt.Sprintf("window@%d", w.Start))
		return child.End
	}
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
	// elapsed is Result.PreprocessTime.
	elapsed time.Duration
}

// analyze sweeps src once in windows of cfg.WindowFrames frames, collecting
// the per-frame histograms and, with scenes set, the background samples and
// pan offsets; it then segments the clip and reconstructs the background.
// The sweep, the segmentation and the reconstruction each report under
// their own span beneath root: "analysis", "keyframes" and "inpaint".
func analyze(src stream.Source, tracks *motio.TrackSet, cfg Config, scenes bool, pool *par.Pool, root *obs.Span) (*analysis, error) {
	start := time.Now() //lint:allow walltime span timing for Table 3 diagnostics; never enters sanitized output
	meta := src.Meta()
	kfCfg := autoSegmentCfg(cfg.Keyframe, meta.Frames)
	hist := &histStage{cfg: kfCfg, pool: pool}
	stages := []stream.Stage{hist}
	var bgs *bgSampleStage
	var pan *panStage
	if scenes {
		step := cfg.BackgroundStep
		if step <= 0 {
			step = detect.AutoStep(meta.Frames)
		}
		bgs = &bgSampleStage{step: step}
		stages = append(stages, bgs)
		if meta.Moving {
			pan = &panStage{maxShift: inpaint.DefaultPanShift}
			stages = append(stages, pan)
		}
	}
	anSpan := root.Child("analysis")
	err := stream.Run(src, cfg.WindowFrames, windowHook(anSpan), stages...)
	anSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: analysis pass: %w", err)
	}

	an := &analysis{}
	kfSpan := root.Child("keyframes")
	an.kf, err = keyframe.SegmentHists(hist.hists, kfCfg, obs.Runtime{Pool: pool, Span: kfSpan})
	kfSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: key frames: %w", err)
	}

	if scenes {
		inSpan := root.Child("inpaint")
		rt := obs.Runtime{Pool: pool, Span: inSpan}
		if meta.Moving {
			an.scenes, err = inpaint.BuildMovingBackgroundSamples(
				meta.W, meta.H, pan.offsets, bgs.samples, bgs.indices, tracks, cfg.Inpaint, rt)
		} else {
			var bg *img.Image
			bg, err = inpaint.StaticBackgroundSamples(
				meta.W, meta.H, bgs.samples, bgs.indices, tracks, cfg.Inpaint, rt)
			if err == nil {
				an.scenes = inpaint.NewStaticScenes(bg)
			}
		}
		inSpan.End()
		if err != nil {
			return nil, fmt.Errorf("core: background: %w", err)
		}
	}
	an.elapsed = time.Since(start) //lint:allow walltime span timing for Table 3 diagnostics; never enters sanitized output
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

	p1Start := time.Now() //lint:allow walltime span timing for Table 3 diagnostics; never enters sanitized output
	p1Span := root.Child("phase1")
	p1, err := runPhase1Stage(tracks, meta.Frames, an.kf, cfg.Phase1, rng, p1Span)
	p1Span.End()
	if err != nil {
		return nil, err
	}
	p1Time := time.Since(p1Start) //lint:allow walltime span timing for Table 3 diagnostics; never enters sanitized output

	// Phase II: consume the remaining rng draws into a pure render plan,
	// then render window by window into the sink.
	p2Start := time.Now() //lint:allow walltime span timing for Table 3 diagnostics; never enters sanitized output
	p2Span := root.Child("phase2")
	plan, err := planPhase2(p1, an.kf, tracks, meta.W, meta.H, meta.Frames, cfg.Phase2, rng)
	if err != nil {
		p2Span.End()
		return nil, fmt.Errorf("core: phase 2: %w", err)
	}
	asm := newPhase2Assembler(plan)
	hook := windowHook(p2Span)
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
		post := hook(stream.Window{Start: lo, Frames: make([]*img.Image, hi-lo), Last: hi == meta.Frames})
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
	p2Time := time.Since(p2Start) //lint:allow walltime span timing for Table 3 diagnostics; never enters sanitized output

	return &Result{
		SyntheticTracks: p2.Tracks,
		Phase1:          p1,
		Phase2:          p2,
		KeyframeResult:  an.kf,
		Epsilon:         p1.Epsilon,
		Phase1Time:      p1Time,
		Phase2Time:      p2Time,
		PreprocessTime:  an.elapsed,
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

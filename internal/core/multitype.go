package core

import (
	"fmt"
	"math/rand"

	"verro/internal/geom"
	"verro/internal/motio"
	"verro/internal/obs"
	"verro/internal/par"
	"verro/internal/scene"
	"verro/internal/stream"
	"verro/internal/vid"
)

// MultiTypeResult is the output of SanitizeMultiType: one synthetic video
// containing synthetic objects of every class, plus per-class diagnostics.
type MultiTypeResult struct {
	Synthetic       *vid.Video
	SyntheticTracks *motio.TrackSet
	// PerClass maps the class name to its Phase I result and ε.
	PerClass map[string]*Phase1Result
	// Epsilon is the worst (largest) per-class ε — each class is
	// ε_class-indistinguishable within itself (paper Section 5).
	Epsilon float64
}

// classOf maps a track's class label to the sprite family.
func classOf(name string) scene.ObjectClass {
	if name == scene.Vehicle.String() {
		return scene.Vehicle
	}
	return scene.Pedestrian
}

// SanitizeMultiType implements the paper's multiple-object-types discussion
// (Section 5): the track set is partitioned by class, Phase I runs
// independently per class (so all pedestrians are mutually
// indistinguishable and all vehicles are mutually indistinguishable), and a
// single Phase II renders every class's synthetic objects into one output
// video. Synthetic IDs are offset per class to stay unique. The analysis,
// key-frame and background steps, Phase I and the Phase II plan are the
// streaming driver's; only the joint renderer is its own, and it holds the
// whole clip in memory.
func SanitizeMultiType(v *vid.Video, tracks *motio.TrackSet, cfg Config) (*MultiTypeResult, error) {
	if v == nil || v.Len() == 0 {
		return nil, fmt.Errorf("core: empty input video")
	}
	if tracks == nil {
		return nil, fmt.Errorf("core: nil track set")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Scoped pool, same as SanitizeStream: cfg.Workers applies to this run only.
	pool := par.NewPool(cfg.Workers)
	cfg.Trace.AttachPool(pool)
	root := cfg.Trace.Root()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Partition by class, preserving track order within a class.
	classes := map[string]*motio.TrackSet{}
	var classNames []string
	for _, t := range tracks.Tracks {
		set, ok := classes[t.Class]
		if !ok {
			set = motio.NewTrackSet()
			classes[t.Class] = set
			classNames = append(classNames, t.Class)
		}
		set.Add(t)
	}
	if len(classNames) == 0 {
		return nil, fmt.Errorf("core: no objects to sanitize")
	}

	// Shared preprocessing (key frames and backgrounds are class-agnostic).
	an, err := analyze(stream.NewSliceSource(vid.MetaOf(v), v.Frames), tracks, cfg, true, pool, root)
	if err != nil {
		return nil, err
	}
	res := &MultiTypeResult{PerClass: map[string]*Phase1Result{}}

	// Phase I and the Phase II plan per class (tracks only), then one shared
	// rendering pass.
	type classOut struct {
		name string
		p2   *Phase2Result
	}
	var outs []classOut
	idOffset := 0
	p1Span := root.Child("phase1")
	p2Span := root.Child("phase2")
	for _, name := range classNames {
		set := classes[name]
		p1, err := runPhase1Stage(set, v.Len(), an.kf, cfg.Phase1, rng, p1Span)
		if err != nil {
			return nil, fmt.Errorf("core: class %q: %w", name, err)
		}
		res.PerClass[name] = p1
		if p1.Epsilon > res.Epsilon {
			res.Epsilon = p1.Epsilon
		}

		p2cfg := cfg.Phase2
		p2cfg.Class = classOf(name)
		p2cfg.SkipRender = true // tracks only; rendering happens jointly below
		p2, err := RunPhase2(p1, an.kf, set, nil, v.W, v.H, v.Len(), p2cfg, rng,
			obs.Runtime{Pool: pool, Span: p2Span})
		if err != nil {
			return nil, fmt.Errorf("core: phase 2 for class %q: %w", name, err)
		}
		// Offset synthetic IDs so classes never collide.
		for _, t := range p2.Tracks.Tracks {
			t.ID += idOffset
		}
		idOffset += set.Len() + 1
		outs = append(outs, classOut{name: name, p2: p2})
	}
	p1Span.End()

	// Joint rendering: composite every class's synthetic tracks over the
	// shared backgrounds, farther (smaller y) objects first.
	merged := motio.NewTrackSet()
	out := vid.New(v.Name+"-verro", v.W, v.H, v.FPS)
	out.Moving = v.Moving
	type drawItem struct {
		class scene.ObjectClass
		id    int
		box   geom.Rect
	}
	// Per-run random color offset; see planPhase2 for the rationale.
	colorOffset := rng.Intn(1 << 16)
	for k := 0; k < v.Len(); k++ {
		bg, err := an.scenes.Background(k)
		if err != nil {
			return nil, err
		}
		frame := bg.Clone()
		var items []drawItem
		for _, co := range outs {
			cls := classOf(co.name)
			for _, t := range co.p2.Tracks.Tracks {
				if b, ok := t.Box(k); ok {
					items = append(items, drawItem{class: cls, id: t.ID, box: b})
				}
			}
		}
		for a := 1; a < len(items); a++ {
			for b := a; b > 0 && items[b].box.Center().Y < items[b-1].box.Center().Y; b-- {
				items[b], items[b-1] = items[b-1], items[b]
			}
		}
		for _, it := range items {
			scene.DrawObject(frame, it.class, scene.Palette(it.id+colorOffset), it.box.CenterVec(), float64(k)*0.35)
		}
		if err := out.Append(frame); err != nil {
			return nil, err
		}
	}
	for _, co := range outs {
		for _, t := range co.p2.Tracks.Tracks {
			merged.Add(t)
		}
	}
	merged.Sort()
	p2Span.End()
	res.Synthetic = out
	res.SyntheticTracks = merged
	return res, nil
}

package core

import (
	"fmt"
	"math"
	"math/rand"

	"verro/internal/assign"
	"verro/internal/geom"
	"verro/internal/img"
	"verro/internal/inpaint"
	"verro/internal/interp"
	"verro/internal/keyframe"
	"verro/internal/motio"
	"verro/internal/obs"
	"verro/internal/par"
	"verro/internal/scene"
)

// Phase2Config tunes synthetic video generation.
type Phase2Config struct {
	// Interp selects the trajectory interpolation method. The default is
	// the paper's Lagrange interpolation: its polynomial oscillation on
	// scattered control points is load-bearing — positions that swing out
	// of frame are suppressed, which is what prunes spurious (ghost)
	// appearances at large flip probabilities (Section 6.3). MethodHybrid
	// or MethodLinear produce smoother trajectories but inflate aggregate
	// counts at high f.
	Interp interp.Method
	// Class is the synthetic sprite family to render. It is not consulted
	// under Config.PerClass, where each class is drawn as its own family.
	Class scene.ObjectClass
	// SkipRender computes the synthetic tracks (boxes and trajectories)
	// without producing pixel data: SanitizeStream appends nothing to its
	// sink and Sanitize leaves Result.Synthetic nil. Parameter sweeps that only
	// evaluate track-level utility use this to avoid the cost of rendering
	// full videos.
	SkipRender bool
}

// DefaultPhase2Config renders pedestrian sprites with Lagrange interpolation.
func DefaultPhase2Config() Phase2Config {
	return Phase2Config{Interp: interp.MethodLagrange, Class: scene.Pedestrian}
}

// Phase2Result is the outcome of Phase II short of pixels: the synthetic
// tracks (for utility evaluation — the video recipient only sees the
// video) and the assignment behind them.
type Phase2Result struct {
	Tracks *motio.TrackSet
	// Assigned records the random key-frame coordinates given to each
	// object index (before interpolation) — the Figure 5 "before Phase II"
	// state.
	Assigned [][]interp.Sample
	// Lost counts objects whose randomized presence vector came out empty
	// (Section 4.2.1).
	Lost int
}

// candidatePools builds the identity-free candidate coordinate pools of
// Section 4.2.2: for every key frame, the center coordinates of all
// objects present in that frame of the original video. No object identity
// crosses this boundary — Phase II sees bare coordinates only.
func candidatePools(tracks *motio.TrackSet, keyFrames []int) [][]geom.Vec {
	pools := make([][]geom.Vec, len(keyFrames))
	for j, k := range keyFrames {
		for _, t := range tracks.Tracks {
			if c, ok := t.Center(k); ok {
				pools[j] = append(pools[j], c)
			}
		}
	}
	return pools
}

// expandPool widens pool j with candidate coordinates from neighbouring
// frames of the same segment (the "insufficient candidate coordinates"
// case), and falls back to the union of all pools, then to uniform random
// positions, so assignment always succeeds.
func expandPool(pool []geom.Vec, tracks *motio.TrackSet, seg keyframe.Segment, keyFrame, need int, bounds geom.Rect, rng *rand.Rand) []geom.Vec {
	out := append([]geom.Vec(nil), pool...)
	for d := 1; len(out) < need && (keyFrame-d >= seg.Start || keyFrame+d <= seg.End); d++ {
		for _, k := range []int{keyFrame - d, keyFrame + d} {
			if k < seg.Start || k > seg.End {
				continue
			}
			for _, t := range tracks.Tracks {
				if c, ok := t.Center(k); ok {
					out = append(out, c)
				}
			}
		}
	}
	for len(out) < need {
		out = append(out, geom.V(
			float64(bounds.Min.X)+rng.Float64()*float64(bounds.Dx()),
			float64(bounds.Min.Y)+rng.Float64()*float64(bounds.Dy()),
		))
	}
	return out
}

// drawCoordinates picks one pool coordinate (without replacement) for every
// object in who. Objects with a previous draw are matched to candidates by
// minimum total distance from that draw; first-time objects consume the
// remaining candidates in (already shuffled) pool order.
func drawCoordinates(who []int, pool []geom.Vec, lastPos []geom.Vec, hasLast []bool, rng *rand.Rand) ([]geom.Vec, error) {
	out := make([]geom.Vec, len(who))
	used := make([]bool, len(pool))

	// Returning objects first: smooth continuation via min-cost matching.
	var returning []int // indices into who
	for idx, i := range who {
		if hasLast[i] {
			returning = append(returning, idx)
		}
	}
	if len(returning) > 0 {
		cost := make([][]float64, len(returning))
		for r, idx := range returning {
			cost[r] = make([]float64, len(pool))
			for c, cand := range pool {
				cost[r][c] = lastPos[who[idx]].Dist(cand)
			}
		}
		rowToCol, _, err := assign.Solve(cost)
		if err != nil {
			return nil, err
		}
		for r, idx := range returning {
			c := rowToCol[r]
			if c < 0 { // more returning objects than candidates cannot
				// happen (pool expanded to len(who)), but stay defensive
				for cc := range pool {
					if !used[cc] {
						c = cc
						break
					}
				}
			}
			out[idx] = pool[c]
			used[c] = true
		}
	}

	// First-time objects: uniform draws from the remaining candidates.
	next := 0
	for idx, i := range who {
		if hasLast[i] {
			continue
		}
		for next < len(pool) && used[next] {
			next++
		}
		if next >= len(pool) {
			// Defensive: duplicate a random candidate rather than fail.
			out[idx] = pool[rng.Intn(len(pool))]
			continue
		}
		out[idx] = pool[next]
		used[next] = true
	}
	return out, nil
}

// pickedSpacing returns the typical frame distance between consecutive
// picked key frames (at least 1).
func pickedSpacing(p1 *Phase1Result, numFrames int) int {
	picked := p1.Picked
	if len(picked) <= 1 {
		if numFrames < 1 {
			return 1
		}
		return numFrames
	}
	span := p1.KeyFrames[picked[len(picked)-1]] - p1.KeyFrames[picked[0]]
	s := span / (len(picked) - 1)
	if s < 1 {
		s = 1
	}
	return s
}

// splitRuns partitions time-ordered samples into runs whose consecutive
// frame gaps never exceed maxGap.
func splitRuns(samples []interp.Sample, maxGap int) [][]interp.Sample {
	if len(samples) == 0 {
		return nil
	}
	var runs [][]interp.Sample
	start := 0
	for i := 1; i < len(samples); i++ {
		if samples[i].Frame-samples[i-1].Frame > maxGap {
			runs = append(runs, samples[start:i])
			start = i
		}
	}
	runs = append(runs, samples[start:])
	return runs
}

// finiteVec reports whether both coordinates are finite numbers. Positions
// must be checked before geom.Vec.Round: converting NaN/±Inf float64 to int
// is implementation-defined in Go, so a blown-up Lagrange evaluation would
// otherwise feed garbage to the in-bounds test.
func finiteVec(p geom.Vec) bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) &&
		!math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// blowupLimit is how far (in frame diagonals) a Lagrange trajectory may
// swing outside the frame before Phase II treats it as Runge blowup rather
// than the paper's load-bearing out-of-frame suppression (Section 6.3).
// Moderate excursions are kept — they prune ghost appearances at high f —
// but excursions this extreme carry no signal and, with many control
// points, only grow worse.
const blowupLimit = 16.0

// safeExtend evaluates the run with interp.ExtendToBorder and guards the
// Lagrange path against catastrophic blowup: if any position is non-finite,
// or the run has more control points than the hybrid cutoff and some
// position lies further than blowupLimit frame diagonals from the frame
// center, the run is re-evaluated with piecewise-linear interpolation (the
// same fallback MethodHybrid applies a priori).
func safeExtend(m interp.Method, run []interp.Sample, numFrames int, bounds geom.Rect, extend int) ([]int, geom.Polyline, error) {
	frames, pos, err := interp.ExtendToBorder(m, run, numFrames, bounds, extend)
	if err != nil || m != interp.MethodLagrange {
		return frames, pos, err
	}
	center := geom.V(
		(float64(bounds.Min.X)+float64(bounds.Max.X))/2,
		(float64(bounds.Min.Y)+float64(bounds.Max.Y))/2,
	)
	limit := blowupLimit * math.Hypot(float64(bounds.Dx()), float64(bounds.Dy()))
	runge := len(run) > interp.HybridCutoff
	for _, p := range pos {
		if !finiteVec(p) || (runge && p.Sub(center).Norm() > limit) {
			return interp.ExtendToBorder(interp.MethodLinear, run, numFrames, bounds, extend)
		}
	}
	return frames, pos, nil
}

// RunPhase2 plans Phase II from the Phase I output and returns the
// synthetic tracks without rendering a frame: the boxes come from
// geometryRange, which is kept in lockstep with the renderer. kf is the
// segmentation that produced p1.KeyFrames; tracks supplies the candidate
// coordinates (their identities are stripped before use). Render/loss
// counters land on rt.Span. Every random draw happens here, on the
// coordinator, in the order planPhase2 fixes; SanitizeStreamFrom renders
// the same plan window by window (renderRange).
func RunPhase2(p1 *Phase1Result, kf *keyframe.Result, tracks *motio.TrackSet,
	w, h, numFrames int, cfg Phase2Config, rng *rand.Rand, rt obs.Runtime) (*Phase2Result, error) {

	plan, err := planPhase2(p1, kf, tracks, w, h, numFrames, cfg, rng)
	if err != nil {
		return nil, err
	}
	asm := newPhase2Assembler(plan)
	for i, fr := range plan.geometryRange(0, numFrames) {
		asm.add(i, fr)
	}
	rt.Span.Add(obs.CFramesRendered, int64(numFrames))
	return asm.finish(rt), nil
}

// placed is one synthetic object scheduled on a frame: its synthetic id,
// sprite class, palette index and interpolated position.
type placed struct {
	id      int
	class   scene.ObjectClass
	palette int
	pos     geom.Vec
}

// phase2Plan is the coordinator-side outcome of Phase II: every random draw
// has been consumed (key-frame assignment, pool expansion/shuffle, and the
// palette offset), leaving a pure per-frame render schedule whose
// placements carry everything a frame needs drawn. Rendering any frame
// from the plan is deterministic, so rendering all frames at once and
// window by window give bit-identical output: the rng stream is consumed
// here and only here.
type phase2Plan struct {
	cfg       Phase2Config
	w, h      int
	numFrames int
	bounds    geom.Rect
	perFrame  [][]placed
	assigned  [][]interp.Sample
	lost      int
}

// planPhase2 runs the randomized half of Phase II and returns the render
// schedule. It consumes rng in exactly the order the original monolithic
// implementation did.
func planPhase2(p1 *Phase1Result, kf *keyframe.Result, tracks *motio.TrackSet,
	w, h, numFrames int, cfg Phase2Config, rng *rand.Rand) (*phase2Plan, error) {

	if p1 == nil || len(p1.Output) == 0 {
		return nil, fmt.Errorf("core: phase 2 requires phase 1 output")
	}
	if numFrames <= 0 || w <= 0 || h <= 0 {
		return nil, fmt.Errorf("core: invalid synthetic geometry %dx%d×%d", w, h, numFrames)
	}
	bounds := geom.R(0, 0, w, h)
	n := len(p1.Output)
	ell := len(p1.KeyFrames)

	pools := candidatePools(tracks, p1.KeyFrames)

	// Per key frame (in time order), pick coordinates for the objects whose
	// randomized bit is set. An object's *first* coordinate is a uniform
	// draw from the pool; subsequent coordinates are matched to the pool by
	// minimum total displacement from the object's own previous draw
	// (Hungarian assignment). The matching reads only previous randomized
	// draws and the identity-free pool — never the original object identity
	// — so it is post-processing in the Theorem 4.1 sense while making
	// synthetic trajectories follow the scene's motion flow.
	assigned := make([][]interp.Sample, n)
	lastPos := make([]geom.Vec, n)
	hasLast := make([]bool, n)
	for j := 0; j < ell; j++ {
		var who []int
		for i := 0; i < n; i++ {
			if p1.Output[i][j] {
				who = append(who, i)
			}
		}
		if len(who) == 0 {
			continue
		}
		segIdx := kf.SegmentOf(p1.KeyFrames[j])
		seg := keyframe.Segment{Start: p1.KeyFrames[j], End: p1.KeyFrames[j]}
		if segIdx >= 0 {
			seg = kf.Segments[segIdx]
		}
		pool := expandPool(pools[j], tracks, seg, p1.KeyFrames[j], len(who), bounds, rng)
		rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })

		chosen, err := drawCoordinates(who, pool, lastPos, hasLast, rng)
		if err != nil {
			return nil, fmt.Errorf("core: coordinate assignment at key frame %d: %w", p1.KeyFrames[j], err)
		}
		for idx, i := range who {
			pos := chosen[idx]
			assigned[i] = append(assigned[i], interp.Sample{Frame: p1.KeyFrames[j], Pos: pos})
			lastPos[i] = pos
			hasLast[i] = true
		}
	}

	// Interpolate every retained object and render. An object's samples are
	// split into runs wherever consecutive picked key frames are separated
	// by more than maxGap frames: an isolated randomized bit far from the
	// object's main presence cluster becomes a brief appearance rather than
	// stretching the object across the whole video (the paper's head/end
	// rule plus its Phase II suppression have the same effect). maxGap and
	// the border-extension cap are both derived from the typical spacing of
	// picked key frames — identity-free quantities.
	spacing := pickedSpacing(p1, numFrames)
	maxGap := 2 * spacing
	maxExtend := spacing
	// A run consisting of a single assigned coordinate has no motion
	// evidence at all: the paper notes interpolation needs at least two
	// assigned frames and that stray appearances are suppressed in
	// Phase II. Such runs are rendered as a brief flicker around their key
	// frame rather than extended across the segment — this is what keeps
	// aggregate counts usable even at f = 0.9 (Section 6.3).
	const singleExtend = 2

	perFrame := make([][]placed, numFrames)
	lost := 0
	for i := 0; i < n; i++ {
		if len(assigned[i]) == 0 {
			lost++
			continue
		}
		for _, run := range splitRuns(assigned[i], maxGap) {
			extend := maxExtend
			if len(run) == 1 {
				extend = singleExtend
			}
			frames, positions, err := safeExtend(cfg.Interp, run, numFrames, bounds, extend)
			if err != nil {
				return nil, fmt.Errorf("core: interpolate object %d: %w", i, err)
			}
			for idx, k := range frames {
				p := positions[idx]
				// Suppress positions that interpolate outside the frame
				// (Section 6.3): the object simply does not appear there.
				// Non-finite positions (possible only for non-Lagrange
				// methods fed degenerate samples) are suppressed the same
				// way instead of reaching the undefined NaN→int conversion.
				if !finiteVec(p) || !p.Round().In(bounds) {
					continue
				}
				perFrame[k] = append(perFrame[k], placed{id: i + 1, class: cfg.Class, pos: p})
			}
		}
	}

	// Synthetic colors are drawn from the palette at a random per-run
	// offset: the color assigned to a synthetic object carries no
	// information across runs or across cameras (a fixed palette would let
	// an adversary link "the red synthetic object" between two sanitized
	// videos of the same scene). It is drawn after assignment, before any
	// rendering — the draw order is part of the byte contract.
	colorOffset := rng.Intn(1 << 16)
	for _, ps := range perFrame {
		for i := range ps {
			ps[i].palette = ps[i].id + colorOffset
		}
	}

	return &phase2Plan{
		cfg: cfg, w: w, h: h, numFrames: numFrames, bounds: bounds,
		perFrame: perFrame, assigned: assigned, lost: lost,
	}, nil
}

// mergePlans folds per-group plans, in group order, into the one schedule
// the driver renders. Each group's synthetic ids (and with them its
// palette indices) shift by the object counts of the groups before it,
// plus one each, so no two groups share an id; the first group keeps its
// ids, so a one-group merge schedules exactly its plan. A frame's
// placements from every group are drawn together, depth-sorted by
// renderRange. Assigned concatenates the groups' and lost sums them.
func mergePlans(plans []*phase2Plan) *phase2Plan {
	m := *plans[0]
	m.perFrame = make([][]placed, m.numFrames)
	m.assigned, m.lost = nil, 0
	offset := 0
	for _, pl := range plans {
		for k, ps := range pl.perFrame {
			for _, p := range ps {
				p.id += offset
				p.palette += offset
				m.perFrame[k] = append(m.perFrame[k], p)
			}
		}
		m.assigned = append(m.assigned, pl.assigned...)
		m.lost += pl.lost
		offset += len(pl.assigned) + 1
	}
	return &m
}

// recordEntry is one synthetic object's box on one frame.
type recordEntry struct {
	id    int
	class scene.ObjectClass
	box   geom.Rect
}

// renderedFrame is the render output for a single frame: the pixel data
// (nil under SkipRender) and the boxes drawn on it.
type renderedFrame struct {
	frame *img.Image
	recs  []recordEntry
	err   error
}

// renderRange renders frames [lo, hi) of the plan on rt.Pool; under
// SkipRender it computes their geometry only (geometryRange). Frames render
// independently: every RNG draw happened during planning on the
// coordinator, DrawObject/syntheticBox are pure given their frame, and each
// worker touches only its own frame clone and record list. Results are
// gathered in frame order, so rendering the clip in one call or in
// consecutive windows produces bit-identical frames and records.
func (pl *phase2Plan) renderRange(scenes inpaint.Scenes, lo, hi int, rt obs.Runtime) ([]renderedFrame, error) {
	if pl.cfg.SkipRender {
		return pl.geometryRange(lo, hi), nil
	}
	renderFrame := func(i int) renderedFrame {
		k := lo + i
		// Depth-sort: draw farther (smaller y) objects first. perFrame[k]
		// is owned by this frame, so the in-place sort is race-free.
		ps := pl.perFrame[k]
		depthSort(ps)
		var res renderedFrame
		bg, err := scenes.Background(k)
		if err != nil {
			res.err = fmt.Errorf("core: background for frame %d: %w", k, err)
			return res
		}
		if bg.W != pl.w || bg.H != pl.h {
			res.err = fmt.Errorf("core: background %dx%d does not match %dx%d", bg.W, bg.H, pl.w, pl.h)
			return res
		}
		frame := bg.Clone()
		for _, p := range ps {
			phase := float64(k) * 0.35
			res.recs = append(res.recs, recordEntry{p.id, p.class, scene.DrawObject(frame, p.class, scene.Palette(p.palette), p.pos, phase)})
		}
		res.frame = frame
		return res
	}
	rendered := par.MapPool(rt.Pool, hi-lo, 1, renderFrame)
	for _, fr := range rendered {
		if fr.err != nil {
			return nil, fr.err
		}
	}
	return rendered, nil
}

// depthSort orders a frame's placements back-to-front (smaller y first),
// the draw order renderRange and geometryRange both apply.
func depthSort(ps []placed) {
	for a := 1; a < len(ps); a++ {
		for b := a; b > 0 && ps[b].pos.Y < ps[b-1].pos.Y; b-- {
			ps[b], ps[b-1] = ps[b-1], ps[b]
		}
	}
}

// geometryRange computes the record entries of frames [lo, hi) without
// touching pixel data: syntheticBox is kept in lockstep with
// scene.DrawObject, so the boxes are exactly those renderRange would have
// recorded. SkipRender runs use it for every frame, and the resume path
// uses it to re-fold windows whose pixels already sit in the persisted
// staging file into the synthetic track set, keeping a resumed Result
// identical to an uninterrupted one.
func (pl *phase2Plan) geometryRange(lo, hi int) []renderedFrame {
	out := make([]renderedFrame, hi-lo)
	for i := range out {
		k := lo + i
		ps := pl.perFrame[k]
		depthSort(ps)
		for _, p := range ps {
			out[i].recs = append(out[i].recs, recordEntry{p.id, p.class, syntheticBox(p.class, p.pos, pl.h)})
		}
	}
	return out
}

// phase2Assembler folds rendered frames (fed strictly in frame order) into
// the synthetic track set. RunPhase2 feeds it the whole clip at once; the
// streaming driver feeds it window by window — the fold is order-
// deterministic either way.
type phase2Assembler struct {
	plan            *phase2Plan
	synth           *motio.TrackSet
	synthTracks     map[int]*motio.Track
	objectsRendered int64
}

func newPhase2Assembler(plan *phase2Plan) *phase2Assembler {
	return &phase2Assembler{
		plan:        plan,
		synth:       motio.NewTrackSet(),
		synthTracks: make(map[int]*motio.Track),
	}
}

// add records the boxes of frame k.
func (a *phase2Assembler) add(k int, fr renderedFrame) {
	a.objectsRendered += int64(len(fr.recs))
	for _, r := range fr.recs {
		vis := r.box.Intersect(a.plan.bounds)
		if vis.Empty() {
			continue
		}
		tr, ok := a.synthTracks[r.id]
		if !ok {
			tr = motio.NewTrack(r.id, r.class.String())
			a.synthTracks[r.id] = tr
			a.synth.Add(tr)
		}
		tr.Set(k, vis)
	}
}

// finish sorts the tracks, lands the object counters on rt.Span, and
// returns the result; the caller owns frame delivery.
func (a *phase2Assembler) finish(rt obs.Runtime) *Phase2Result {
	a.synth.Sort()
	rt.Span.Add(obs.CObjectsRendered, a.objectsRendered)
	rt.Span.Add(obs.CObjectsLost, int64(a.plan.lost))
	return &Phase2Result{
		Tracks:   a.synth,
		Assigned: a.plan.assigned,
		Lost:     a.plan.lost,
	}
}

// syntheticBox computes the box a synthetic object would cover at pos
// without rendering it — the geometryRange path, kept in lockstep with
// scene.DrawObject.
func syntheticBox(class scene.ObjectClass, pos geom.Vec, frameH int) geom.Rect {
	s := scene.DepthScale(pos.Y, frameH)
	w, h := scene.SpriteSize(class, s)
	c := pos.Round()
	return geom.RectAt(c.X-w/2, c.Y-h/2, w, h)
}

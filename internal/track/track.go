// Package track implements a SORT-style multi-object tracker: each track is
// a constant-velocity Kalman filter; detections are associated to tracks by
// minimum-cost assignment over an IoU + appearance (HSV histogram) cost; the
// track lifecycle (tentative → confirmed → dead) mirrors the trackers the
// paper uses [48, 49] with the deep appearance embedding replaced by a
// colour histogram.
package track

import (
	"fmt"
	"math"

	"verro/internal/assign"
	"verro/internal/detect"
	"verro/internal/geom"
	"verro/internal/img"
	"verro/internal/kalman"
	"verro/internal/motio"
	"verro/internal/obs"
	"verro/internal/par"
)

// Config tunes the tracker.
type Config struct {
	// IoUWeight and AppearanceWeight blend the two association costs.
	IoUWeight        float64
	AppearanceWeight float64
	// MaxCost is the association gate: pairs costing more are forbidden.
	MaxCost float64
	// MaxMisses is how many consecutive frames a confirmed track survives
	// without a matched detection.
	MaxMisses int
	// MinHits is how many matches a tentative track needs to be confirmed.
	MinHits int
}

// DefaultConfig returns tracker settings tuned for the synthetic benchmark.
func DefaultConfig() Config {
	return Config{
		IoUWeight:        0.7,
		AppearanceWeight: 0.3,
		MaxCost:          0.85,
		MaxMisses:        5,
		MinHits:          2,
	}
}

// state is a live track's bookkeeping.
type state struct {
	id        int
	filter    *kalman.Filter
	hist      *img.HSVHist
	hits      int
	misses    int
	confirmed bool
	lastBox   geom.Rect
}

// Tracker consumes per-frame detections and emits identity-stable tracks.
type Tracker struct {
	cfg    Config
	nextID int
	live   []*state
	out    map[int]*motio.Track
	frame  int
}

// New returns an empty tracker.
func New(cfg Config) *Tracker {
	if cfg.IoUWeight == 0 && cfg.AppearanceWeight == 0 {
		cfg = DefaultConfig()
	}
	if cfg.MaxMisses <= 0 {
		cfg.MaxMisses = 5
	}
	if cfg.MinHits <= 0 {
		cfg.MinHits = 2
	}
	if cfg.MaxCost <= 0 {
		cfg.MaxCost = 0.85
	}
	return &Tracker{cfg: cfg, nextID: 1, out: map[int]*motio.Track{}}
}

// Step advances the tracker by one frame. frame supplies pixel data for the
// appearance term; detections are the frame's detector output.
func (t *Tracker) Step(frame *img.Image, detections []detect.Detection) error {
	if frame == nil {
		return fmt.Errorf("track: nil frame")
	}
	// Predict all live tracks forward.
	predicted := make([]geom.Rect, len(t.live))
	for i, s := range t.live {
		predicted[i] = s.filter.Predict()
	}

	// Appearance of each detection.
	detHists := make([]*img.HSVHist, len(detections))
	for i, d := range detections {
		detHists[i] = img.NewHSVHistRegion(frame, d.Box, 8, 4, 4)
	}

	matchedTracks := make([]bool, len(t.live))
	matchedDets := make([]bool, len(detections))

	if len(t.live) > 0 && len(detections) > 0 {
		cost := make([][]float64, len(t.live))
		for i, s := range t.live {
			cost[i] = make([]float64, len(detections))
			for j, d := range detections {
				c := t.pairCost(predicted[i], s.hist, d.Box, detHists[j])
				if c > t.cfg.MaxCost {
					c = math.Inf(1)
				}
				cost[i][j] = c
			}
		}
		rowToCol, _, err := assign.Solve(padForbidden(cost))
		if err != nil {
			return fmt.Errorf("track: association: %w", err)
		}
		for i := range t.live {
			j := rowToCol[i]
			if j < 0 || j >= len(detections) {
				continue // matched to a padding column = unmatched
			}
			if math.IsInf(cost[i][j], 1) {
				continue
			}
			t.matchTrack(i, detections[j], detHists[j])
			matchedTracks[i] = true
			matchedDets[j] = true
		}
	}

	// Unmatched tracks age.
	var survivors []*state
	for i, s := range t.live {
		if !matchedTracks[i] {
			s.misses++
		}
		if s.misses <= t.cfg.MaxMisses {
			survivors = append(survivors, s)
		}
	}
	t.live = survivors

	// Unmatched detections spawn tentative tracks.
	for j, d := range detections {
		if matchedDets[j] {
			continue
		}
		s := &state{
			id:      t.nextID,
			filter:  kalman.New(d.Box),
			hist:    detHists[j],
			hits:    1,
			lastBox: d.Box,
		}
		t.nextID++
		t.live = append(t.live, s)
	}

	// Record confirmed tracks.
	for _, s := range t.live {
		if s.confirmed && s.misses == 0 {
			tr, ok := t.out[s.id]
			if !ok {
				tr = motio.NewTrack(s.id, "pedestrian")
				t.out[s.id] = tr
			}
			tr.Set(t.frame, s.lastBox)
		}
	}
	t.frame++
	return nil
}

// matchTrack updates track i with detection d.
func (t *Tracker) matchTrack(i int, d detect.Detection, h *img.HSVHist) {
	s := t.live[i]
	s.filter.Update(d.Box)
	s.lastBox = d.Box
	s.hits++
	s.misses = 0
	// Exponential appearance update.
	s.hist.Mix(h, 0.25)
	if !s.confirmed && s.hits >= t.cfg.MinHits {
		s.confirmed = true
	}
}

// pairCost blends (1−IoU) and (1−appearance cosine).
func (t *Tracker) pairCost(trackBox geom.Rect, trackHist *img.HSVHist, detBox geom.Rect, detHist *img.HSVHist) float64 {
	iou := geom.IoU(trackBox, detBox)
	app := img.CosineSim(trackHist.Concat(), detHist.Concat())
	wSum := t.cfg.IoUWeight + t.cfg.AppearanceWeight
	return (t.cfg.IoUWeight*(1-iou) + t.cfg.AppearanceWeight*(1-app)) / wSum
}

// padForbidden appends, for every row, a dedicated high-cost dummy column so
// the assignment always has a feasible solution even when all real pairs
// are forbidden (+Inf).
func padForbidden(cost [][]float64) [][]float64 {
	n := len(cost)
	if n == 0 {
		return cost
	}
	m := len(cost[0])
	out := make([][]float64, n)
	for i := range cost {
		row := make([]float64, m+n)
		copy(row, cost[i])
		for j := m; j < m+n; j++ {
			row[j] = 1e6 // lose to any finite real pairing
		}
		out[i] = row
	}
	return out
}

// Tracks returns the confirmed tracks accumulated so far, sorted by ID.
func (t *Tracker) Tracks() *motio.TrackSet {
	set := motio.NewTrackSet()
	for _, tr := range t.out {
		set.Add(tr.Clone())
	}
	set.Sort()
	return set
}

// Run drives a detector over a whole frame sequence and returns the tracks:
// a Runner fed one window. Detection shards over rt.Pool under a "detect"
// child span of rt.Span and the serial association pass reports under a
// "track" child span; the zero obs.Runtime runs on the default pool,
// untraced.
func Run(frames []*img.Image, det detect.Detector, cfg Config, rt obs.Runtime) (*motio.TrackSet, error) {
	r := NewRunner(det, cfg, rt)
	if err := r.Window(frames); err != nil {
		return nil, err
	}
	return r.Finish()
}

// Runner drives a detector and the tracker over consecutive frame windows:
// the caller feeds them to Window and collects the tracks with Finish.
// Detection is stateless per frame, so each window is detected on the
// worker pool first; the stateful tracker then consumes the gathered
// results strictly in clip order across windows. The track set is therefore
// bit-identical to a serial run at any window size and worker count, while
// only one window of pixels is alive at a time. Detector implementations
// must tolerate concurrent Detect calls (both built-in detectors are pure
// readers of their model state).
type Runner struct {
	det     detect.Detector
	tr      *Tracker
	rt      obs.Runtime
	dspan   *obs.Span
	tspan   *obs.Span
	nFrames int64
	nDets   int64
}

// NewRunner builds a windowed runner on rt. Detectors implementing
// obs.SpanSetter (the HOG+SVM detector does) are rebound to the runner's
// detect span so their internal counters nest there.
func NewRunner(det detect.Detector, cfg Config, rt obs.Runtime) *Runner {
	dspan := rt.Span.Child("detect")
	if s, ok := det.(obs.SpanSetter); ok {
		s.SetSpan(dspan)
	}
	return &Runner{
		det:   det,
		tr:    New(cfg),
		rt:    rt,
		dspan: dspan,
		tspan: rt.Span.Child("track"),
	}
}

// Window detects the next consecutive run of frames on the pool and folds
// them through the tracker in frame order.
func (r *Runner) Window(frames []*img.Image) error {
	type detResult struct {
		dets []detect.Detection
		err  error
	}
	results := par.MapPool(r.rt.Pool, len(frames), 1, func(i int) detResult {
		ds, err := r.det.Detect(frames[i])
		return detResult{dets: ds, err: err}
	})
	r.nFrames += int64(len(frames))
	for i, f := range frames {
		if results[i].err != nil {
			return results[i].err
		}
		r.nDets += int64(len(results[i].dets))
		if err := r.tr.Step(f, results[i].dets); err != nil {
			return err
		}
	}
	return nil
}

// Finish closes the spans with their totals and returns the confirmed
// tracks.
func (r *Runner) Finish() (*motio.TrackSet, error) {
	set := r.tr.Tracks()
	r.dspan.Add(obs.CFramesDetected, r.nFrames)
	r.dspan.Add(obs.CDetections, r.nDets)
	r.dspan.End()
	r.tspan.Add(obs.CFramesTracked, r.nFrames)
	r.tspan.Add(obs.CTracksConfirmed, int64(len(set.Tracks)))
	r.tspan.End()
	return set, nil
}

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

// appearance returns the HSV histogram of each detection's box in the
// frame: the tracker's appearance term. It reads only its arguments, so
// Runner.Window builds it on the pool beside Detect.
func appearance(frame *img.Image, detections []detect.Detection) ([]*img.HSVHist, error) {
	if frame == nil {
		return nil, fmt.Errorf("track: nil frame")
	}
	hists := make([]*img.HSVHist, len(detections))
	for i, d := range detections {
		hists[i] = img.NewHSVHistRegion(frame, d.Box, 8, 4, 4)
	}
	return hists, nil
}

// step advances the tracker by one frame given the detections and their
// appearance histograms.
func (t *Tracker) step(detections []detect.Detection, detHists []*img.HSVHist) error {
	// Predict all live tracks forward.
	predicted := make([]geom.Rect, len(t.live))
	for i, s := range t.live {
		predicted[i] = s.filter.Predict()
	}

	matchedTracks := make([]bool, len(t.live))
	matchedDets := make([]bool, len(detections))

	if len(t.live) > 0 && len(detections) > 0 {
		// Each histogram is flattened once for the cosine term, not once
		// per pair.
		detVecs := make([][]float64, len(detections))
		for j, h := range detHists {
			detVecs[j] = h.Concat()
		}
		cost := make([][]float64, len(t.live))
		for i, s := range t.live {
			trackVec := s.hist.Concat()
			cost[i] = make([]float64, len(detections))
			for j, d := range detections {
				c := t.pairCost(predicted[i], trackVec, d.Box, detVecs[j])
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

// pairCost blends (1−IoU) and (1−appearance cosine) over the track's and
// the detection's concatenated histograms (img.HSVHist.Concat).
func (t *Tracker) pairCost(trackBox geom.Rect, trackVec []float64, detBox geom.Rect, detVec []float64) float64 {
	iou := geom.IoU(trackBox, detBox)
	app := img.CosineSim(trackVec, detVec)
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
	det detect.Detector
	tr  *Tracker
	rt  obs.Runtime
}

// NewRunner builds a windowed runner on rt.
func NewRunner(det detect.Detector, cfg Config, rt obs.Runtime) *Runner {
	return &Runner{det: det, tr: New(cfg), rt: rt}
}

// Window detects the next consecutive run of frames on the pool, with the
// appearance histogram of each detection, and folds them through the
// tracker in frame order. A frame whose detection failed returns its
// error after the frames before it are tracked. The detection runs under a
// "detect" child of the runner's span and the fold under a "track" child,
// both ended before Window returns; a detector implementing obs.SpanSetter
// (the HOG+SVM detector does) is rebound to the window's detect span so its
// internal counters nest there.
func (r *Runner) Window(frames []*img.Image) error {
	type detResult struct {
		dets  []detect.Detection
		hists []*img.HSVHist
		err   error
	}
	dspan := r.rt.Span.Child("detect")
	if s, ok := r.det.(obs.SpanSetter); ok {
		s.SetSpan(dspan)
	}
	results := par.MapPool(r.rt.Pool, len(frames), 1, func(i int) detResult {
		ds, err := r.det.Detect(frames[i])
		var hists []*img.HSVHist
		if err == nil {
			hists, err = appearance(frames[i], ds)
		}
		return detResult{dets: ds, hists: hists, err: err}
	})
	var nDets int64
	for _, res := range results {
		nDets += int64(len(res.dets))
	}
	dspan.Add(obs.CFramesDetected, int64(len(frames)))
	dspan.Add(obs.CDetections, nDets)
	dspan.End()

	tspan := r.rt.Span.Child("track")
	defer tspan.End()
	for i, res := range results {
		err := res.err
		if err == nil {
			err = r.tr.step(res.dets, res.hists)
		}
		if err != nil {
			tspan.Add(obs.CFramesTracked, int64(i))
			return err
		}
	}
	tspan.Add(obs.CFramesTracked, int64(len(results)))
	return nil
}

// Finish returns the confirmed tracks and adds their count to the runner's
// span.
func (r *Runner) Finish() (*motio.TrackSet, error) {
	set := r.tr.Tracks()
	r.rt.Span.Add(obs.CTracksConfirmed, int64(len(set.Tracks)))
	return set, nil
}

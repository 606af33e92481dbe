// Package keyframe implements the video segmentation and key-frame
// extraction of paper Algorithm 2: frames are greedily clustered into
// segments of consecutive, HSV-histogram-similar frames, and the frame with
// maximum weighted HSV entropy in each segment becomes its key frame. This
// is VERRO's dimension-reduction step (Section 3.2).
package keyframe

import (
	"errors"
	"fmt"

	"verro/internal/img"
	"verro/internal/obs"
	"verro/internal/par"
	"verro/internal/vid"
)

// Config holds the Algorithm 2 parameters.
type Config struct {
	HBins, SBins, VBins int     // histogram partition sizes (line 2)
	Alpha, Beta, Gamma  float64 // channel weights (line 10)
	Tau                 float64 // similarity threshold τ (line 10)
	// MaxSegmentLen optionally caps segment length so that very static
	// videos still yield enough key frames for the downstream optimizer;
	// 0 means unlimited (pure Algorithm 2).
	MaxSegmentLen int
}

// DefaultConfig returns parameters that behave well on the benchmark
// videos: 16/8/8 bins, H-weighted similarity, and a threshold that splits
// on scene changes but tolerates object motion.
func DefaultConfig() Config {
	return Config{
		HBins: 16, SBins: 8, VBins: 8,
		Alpha: 0.5, Beta: 0.3, Gamma: 0.2,
		Tau: 0.97,
	}
}

// Segment is one cluster of consecutive frames with its selected key frame.
type Segment struct {
	Start, End int // frame range, inclusive
	KeyFrame   int // index of the maximum-entropy frame within [Start, End]
}

// Contains reports whether frame k falls in the segment.
func (s Segment) Contains(k int) bool { return k >= s.Start && k <= s.End }

func (s Segment) String() string {
	return fmt.Sprintf("[%d..%d] key=%d", s.Start, s.End, s.KeyFrame)
}

// Result is the output of Extract: the segments in order plus the key-frame
// indices (one per segment, ascending).
type Result struct {
	Segments  []Segment
	KeyFrames []int
}

// SegmentOf returns the index of the segment containing frame k, or -1.
func (r *Result) SegmentOf(k int) int {
	for i, s := range r.Segments {
		if s.Contains(k) {
			return i
		}
	}
	return -1
}

// ErrEmptyVideo is returned when the video has no frames.
var ErrEmptyVideo = errors.New("keyframe: empty video")

// Extract runs Algorithm 2 over an in-memory clip: histogram computation
// shards over rt.Pool, and segment/key-frame counts land on rt.Span. The
// zero obs.Runtime runs on the default pool, untraced.
func Extract(v *vid.Video, cfg Config, rt obs.Runtime) (*Result, error) {
	if v.Len() == 0 {
		return nil, ErrEmptyVideo
	}
	hists, err := FrameHists(v.Frames, cfg, rt.Pool)
	if err != nil {
		return nil, err
	}
	return SegmentHists(hists, cfg, rt)
}

// FrameHists computes the per-frame HSV histograms of Algorithm 2 lines 4-6
// on the given pool: independent per frame, sharded with an index-ordered
// gather. The streaming driver calls this window by window (histograms are
// a few hundred bytes per frame, so retaining them is O(clip-metadata), not
// O(clip-pixels)); Extract calls it once over the whole clip. Both produce
// bit-identical histograms because the per-frame computation is pure.
func FrameHists(frames []*img.Image, cfg Config, pool *par.Pool) ([]*img.HSVHist, error) {
	if cfg.HBins <= 0 || cfg.SBins <= 0 || cfg.VBins <= 0 {
		return nil, fmt.Errorf("keyframe: non-positive bin counts %d/%d/%d", cfg.HBins, cfg.SBins, cfg.VBins)
	}
	return par.MapPool(pool, len(frames), 1, func(k int) *img.HSVHist {
		return img.NewHSVHist(frames[k], cfg.HBins, cfg.SBins, cfg.VBins)
	}), nil
}

// SegmentHists runs the greedy segmentation of Algorithm 2 (lines 3-21)
// over already-computed per-frame histograms; segment and key-frame counts
// land on rt.Span. The segmentation is serial because each decision depends
// on the running segment histogram.
func SegmentHists(hists []*img.HSVHist, cfg Config, rt obs.Runtime) (*Result, error) {
	if len(hists) == 0 {
		return nil, ErrEmptyVideo
	}
	// Greedy segmentation (lines 3-16). The segment is represented by the
	// running mean histogram of its members. There is at most one segment
	// per histogram, so reserving that many avoids regrowth entirely.
	segments := make([]Segment, 0, len(hists))
	segStart := 0
	segHist := cloneHist(hists[0])
	segLen := 1
	for k := 1; k < len(hists); k++ {
		sim := segHist.Similarity(hists[k], cfg.Alpha, cfg.Beta, cfg.Gamma)
		tooLong := cfg.MaxSegmentLen > 0 && segLen >= cfg.MaxSegmentLen
		if sim >= cfg.Tau && !tooLong {
			// Expand the segment; update the running mean histogram.
			segLen++
			segHist.Mix(hists[k], 1/float64(segLen))
			continue
		}
		segments = append(segments, finishSegment(segStart, k-1, hists, cfg))
		segStart = k
		segHist = cloneHist(hists[k])
		segLen = 1
	}
	segments = append(segments, finishSegment(segStart, len(hists)-1, hists, cfg))

	res := &Result{Segments: segments}
	for _, s := range segments {
		res.KeyFrames = append(res.KeyFrames, s.KeyFrame)
	}
	rt.Span.Add(obs.CSegments, int64(len(res.Segments)))
	rt.Span.Add(obs.CKeyFrames, int64(len(res.KeyFrames)))
	return res, nil
}

// finishSegment closes a segment and selects its maximum-entropy key frame
// (lines 17-21).
func finishSegment(start, end int, hists []*img.HSVHist, cfg Config) Segment {
	best := start
	bestEntropy := hists[start].Entropy(cfg.Alpha, cfg.Beta, cfg.Gamma)
	for i, h := range hists[start+1 : end+1] {
		e := h.Entropy(cfg.Alpha, cfg.Beta, cfg.Gamma)
		if e > bestEntropy {
			best, bestEntropy = start+1+i, e
		}
	}
	return Segment{Start: start, End: end, KeyFrame: best}
}

func cloneHist(h *img.HSVHist) *img.HSVHist {
	out := &img.HSVHist{
		H: append([]float64(nil), h.H...),
		S: append([]float64(nil), h.S...),
		V: append([]float64(nil), h.V...),
	}
	return out
}

package keyframe

import (
	"fmt"

	"verro/internal/obs"
	"verro/internal/vid"
)

// ExtractBoundary is the shot-boundary alternative the paper cites [19]
// before settling on clustering: a new segment starts wherever the mean
// absolute pixel difference between consecutive frames exceeds a
// threshold, and each segment's middle frame becomes its key frame. It is
// kept as an ablation baseline for Algorithm 2.
type BoundaryConfig struct {
	// Threshold is the mean per-channel difference (0-255) that starts a
	// new segment; 0 means 12.
	Threshold float64
	// MaxSegmentLen caps segment length (0 = unlimited), as in Config.
	MaxSegmentLen int
}

// DefaultBoundaryConfig suits the synthetic benchmark videos.
func DefaultBoundaryConfig() BoundaryConfig {
	return BoundaryConfig{Threshold: 12}
}

// ExtractWithBoundary segments the video by consecutive-frame difference.
func ExtractWithBoundary(v *vid.Video, cfg BoundaryConfig) (*Result, error) {
	if v.Len() == 0 {
		return nil, ErrEmptyVideo
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 12
	}

	segments := make([]Segment, 0, v.Len())
	start := 0
	segLen := 1
	for k := 1; k < v.Len(); k++ {
		diff := v.Frame(k).MeanAbsDiff(v.Frame(k - 1))
		tooLong := cfg.MaxSegmentLen > 0 && segLen >= cfg.MaxSegmentLen
		if diff < cfg.Threshold && !tooLong {
			segLen++
			continue
		}
		segments = append(segments, middleKeyed(start, k-1))
		start = k
		segLen = 1
	}
	segments = append(segments, middleKeyed(start, v.Len()-1))

	res := &Result{Segments: segments}
	for _, s := range segments {
		res.KeyFrames = append(res.KeyFrames, s.KeyFrame)
	}
	return res, nil
}

// middleKeyed builds a segment keyed at its middle frame.
func middleKeyed(start, end int) Segment {
	return Segment{Start: start, End: end, KeyFrame: (start + end) / 2}
}

// Method names for diagnostics.
const (
	MethodClustering = "clustering"
	MethodBoundary   = "boundary"
)

// ExtractByMethod dispatches between the two extractors; clusterCfg is
// used for the clustering method, boundaryCfg for the boundary method.
func ExtractByMethod(method string, v *vid.Video, clusterCfg Config, boundaryCfg BoundaryConfig) (*Result, error) {
	switch method {
	case MethodClustering:
		return Extract(v, clusterCfg, obs.Runtime{})
	case MethodBoundary:
		return ExtractWithBoundary(v, boundaryCfg)
	default:
		return nil, fmt.Errorf("keyframe: unknown method %q", method)
	}
}

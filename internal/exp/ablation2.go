package exp

import (
	"fmt"
	"io"
	"math/rand"

	"verro/internal/core"
	"verro/internal/interp"
	"verro/internal/keyframe"
	"verro/internal/metrics"
	"verro/internal/obs"
)

// InterpAblationRow compares Phase II interpolation methods at a fixed f:
// the paper's Lagrange against the piecewise-linear and nearest-neighbour
// alternatives it cites ([17] vs [21]).
type InterpAblationRow struct {
	Video  string
	F      float64
	Method string
	// Deviation is the Figure 5-style indexed trajectory deviation.
	Deviation float64
	// CountMAE is the per-frame object-count error against the original.
	CountMAE float64
}

// InterpAblation evaluates each interpolation method on the dataset.
func InterpAblation(d *Dataset, f float64, trials int, seed int64) ([]InterpAblationRow, error) {
	if trials < 1 {
		trials = 1
	}
	methods := []struct {
		name string
		m    interp.Method
	}{
		{"lagrange", interp.MethodLagrange},
		{"linear", interp.MethodLinear},
		{"nearest", interp.MethodNearest},
		{"hybrid", interp.MethodHybrid},
	}
	m := d.Gen.Video.Len()
	orig := d.Tracks.CountSeries(m)
	var rows []InterpAblationRow
	for _, method := range methods {
		rng := rand.New(rand.NewSource(seed))
		var dev, mae float64
		for t := 0; t < trials; t++ {
			p1, err := d.phase1(f, true, rng)
			if err != nil {
				return nil, err
			}
			p2, err := core.RunPhase2(p1, d.KF, d.Tracks,
				d.Gen.Video.W, d.Gen.Video.H, m,
				core.Phase2Config{Interp: method.m}, rng, obs.Runtime{})
			if err != nil {
				return nil, err
			}
			dev += metrics.IndexedTrajectoryDeviation(d.Tracks, p2.Tracks)
			mae += metrics.CountMAE(orig, p2.Tracks.CountSeries(m))
		}
		rows = append(rows, InterpAblationRow{
			Video: d.Preset.Name, F: f, Method: method.name,
			Deviation: dev / float64(trials),
			CountMAE:  mae / float64(trials),
		})
	}
	return rows, nil
}

// PrintInterpAblation renders the comparison.
func PrintInterpAblation(w io.Writer, rows []InterpAblationRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "Interpolation ablation (%s, f=%.1f):\n", rows[0].Video, rows[0].F)
	fmt.Fprintf(w, "  %-10s %10s %10s\n", "method", "deviation", "count-MAE")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s %10.3f %10.3f\n", r.Method, r.Deviation, r.CountMAE)
	}
}

// KeyframeAblationRow compares the clustering key-frame extractor
// (Algorithm 2) against the boundary-method alternative the paper cites.
type KeyframeAblationRow struct {
	Video     string
	Method    string
	KeyFrames int
	Remaining int
}

// KeyframeAblation runs both extractors on the dataset's video.
func KeyframeAblation(d *Dataset) ([]KeyframeAblationRow, error) {
	boundaryCfg := keyframe.DefaultBoundaryConfig()
	boundaryCfg.MaxSegmentLen = d.KFCfg.MaxSegmentLen
	var rows []KeyframeAblationRow
	for _, method := range []string{keyframe.MethodClustering, keyframe.MethodBoundary} {
		res, err := keyframe.ExtractByMethod(method, d.Gen.Video, d.KFCfg, boundaryCfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, KeyframeAblationRow{
			Video:     d.Preset.Name,
			Method:    method,
			KeyFrames: len(res.KeyFrames),
			Remaining: core.PresentInKeyFrames(d.Tracks, res),
		})
	}
	return rows, nil
}

// PrintKeyframeAblation renders the comparison.
func PrintKeyframeAblation(w io.Writer, rows []KeyframeAblationRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "Key-frame extractor ablation (%s):\n", rows[0].Video)
	fmt.Fprintf(w, "  %-12s %10s %10s\n", "method", "keyframes", "remaining")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-12s %10d %10d\n", r.Method, r.KeyFrames, r.Remaining)
	}
}

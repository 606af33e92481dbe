package core

import (
	"fmt"
	"math"

	"verro/internal/motio"
	"verro/internal/vid"
)

// JointResult is the output of SanitizeJoint: one sanitized video per
// camera plus composed privacy accounting.
type JointResult struct {
	Results []*Result
	// Epsilon is the sequential-composition bound for an object that
	// appears in EVERY camera: Σ_c ε_c. An adversary who links synthetic
	// videos across cameras faces at most this budget per object (paper
	// conclusion: "explore rigorous protection for objects which can be
	// tracked in multiple videos").
	Epsilon float64
	// PerCamera lists each camera's own ε.
	PerCamera []float64
}

// SanitizeJoint sanitizes several cameras' videos of (potentially) the
// same population with a shared total budget: totalEps is split equally
// across cameras, each camera's Phase I resolves its share to a flip
// probability over its own picked key frames (Phase1Config.Eps), and the
// composed ε is reported. Each camera's output on its own satisfies its
// per-camera ε-Object Indistinguishability; the composition bound covers
// adversaries that join all outputs.
func SanitizeJoint(videos []*vid.Video, tracks []*motio.TrackSet, totalEps float64, cfg Config) (*JointResult, error) {
	if len(videos) == 0 {
		return nil, fmt.Errorf("core: no videos")
	}
	if len(videos) != len(tracks) {
		return nil, fmt.Errorf("core: %d videos but %d track sets", len(videos), len(tracks))
	}
	// A zero budget would read as "use F" in Phase1Config.Eps. NaN fails
	// `<= 0`, so it is named explicitly.
	if math.IsNaN(totalEps) || math.IsInf(totalEps, 0) || totalEps <= 0 {
		return nil, fmt.Errorf("core: total epsilon %v must be positive and finite", totalEps)
	}
	perCamEps := totalEps / float64(len(videos))

	out := &JointResult{}
	for i, v := range videos {
		camCfg := cfg
		camCfg.Seed = cfg.Seed + int64(i)*7919
		camCfg.Phase1.Eps = perCamEps
		res, err := Sanitize(v, tracks[i], camCfg)
		if err != nil {
			return nil, fmt.Errorf("core: camera %d: %w", i, err)
		}
		out.Results = append(out.Results, res)
		out.PerCamera = append(out.PerCamera, res.Epsilon)
		out.Epsilon += res.Epsilon
	}
	return out, nil
}

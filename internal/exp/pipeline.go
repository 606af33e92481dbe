package exp

import (
	"fmt"

	"verro/internal/detect"
	"verro/internal/motio"
	"verro/internal/obs"
	"verro/internal/scene"
	"verro/internal/track"
)

// trackObjects runs the real detection+tracking preprocessing over a
// generated dataset, reporting stage spans to tr (nil = untraced).
func trackObjects(g *scene.Generated, tr *obs.Trace) (*motio.TrackSet, error) {
	root := tr.Root()
	bgSpan := root.Child("background")
	bg, err := detect.MedianBackground(g.Video.Frames, detect.AutoStep(g.Video.Len()), obs.Runtime{Span: bgSpan})
	bgSpan.End()
	if err != nil {
		return nil, fmt.Errorf("exp: background model: %w", err)
	}
	tracks, err := track.Run(g.Video.Frames, detect.NewBGSubtractor(bg), track.DefaultConfig(),
		obs.Runtime{Span: root})
	if err != nil {
		return nil, fmt.Errorf("exp: tracking: %w", err)
	}
	return tracks, nil
}

package detect

import (
	"errors"
	"fmt"

	"verro/internal/geom"
	"verro/internal/img"
	"verro/internal/obs"
)

// BGSubtractor detects moving objects in static-camera footage by
// thresholding the luma difference against a background model and growing
// connected components into boxes. It is the fast preprocessing path for
// the MOT01/MOT03-style sequences.
type BGSubtractor struct {
	Background *img.Image
	// Threshold is the minimum per-pixel luma difference treated as
	// foreground.
	Threshold float64
	// MinArea discards components smaller than this many pixels.
	MinArea int
	// MaxBoxFrac discards boxes covering more than this fraction of the
	// frame (illumination shifts, not objects). 0 means 0.25.
	MaxBoxFrac float64
}

// NewBGSubtractor returns a subtractor with sensible defaults for the
// synthetic benchmark videos.
func NewBGSubtractor(background *img.Image) *BGSubtractor {
	return &BGSubtractor{
		Background: background,
		Threshold:  26,
		MinArea:    10,
		MaxBoxFrac: 0.25,
	}
}

// ErrNoBackground is returned when the subtractor has no background model.
var ErrNoBackground = errors.New("detect: background model missing")

// Detect finds foreground boxes in the frame.
func (b *BGSubtractor) Detect(frame *img.Image) ([]Detection, error) {
	if b.Background == nil {
		return nil, ErrNoBackground
	}
	if frame.W != b.Background.W || frame.H != b.Background.H {
		return nil, fmt.Errorf("detect: frame %dx%d vs background %dx%d",
			frame.W, frame.H, b.Background.W, b.Background.H)
	}
	diff := img.ColorDiffPlane(frame, b.Background)
	w, h := frame.W, frame.H

	// Binary foreground mask.
	mask := make([]bool, w*h)
	for i, d := range diff {
		mask[i] = d >= b.Threshold
	}

	// Connected components by BFS (8-connectivity).
	visited := make([]bool, w*h)
	maxFrac := b.MaxBoxFrac
	if maxFrac <= 0 {
		maxFrac = 0.25
	}
	var out []Detection
	queue := make([]int, 0, 256)
	for start := range mask {
		if !mask[start] || visited[start] {
			continue
		}
		queue = queue[:0]
		queue = append(queue, start)
		visited[start] = true
		minX, minY := w, h
		maxX, maxY := -1, -1
		area := 0
		var scoreSum float64
		for len(queue) > 0 {
			i := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			x, y := i%w, i/w
			area++
			scoreSum += diff[i]
			if x < minX {
				minX = x
			}
			if y < minY {
				minY = y
			}
			if x > maxX {
				maxX = x
			}
			if y > maxY {
				maxY = y
			}
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					nx, ny := x+dx, y+dy
					if nx < 0 || ny < 0 || nx >= w || ny >= h {
						continue
					}
					j := ny*w + nx
					if mask[j] && !visited[j] {
						visited[j] = true
						queue = append(queue, j)
					}
				}
			}
		}
		if area == 0 || area < b.MinArea {
			continue
		}
		box := geom.R(minX, minY, maxX+1, maxY+1)
		if float64(box.Area()) > maxFrac*float64(w*h) {
			continue
		}
		out = append(out, Detection{Box: box, Score: scoreSum / float64(area)})
	}
	return NMS(out, 0.5), nil
}

// MedianBackground estimates a static background as the per-pixel,
// per-channel median over the sampled frames — the classic background
// extraction for static surveillance cameras. step subsamples frames
// (step=1 uses all of them). The median shards over rt.Pool and the
// sampled-frame count lands on rt.Span; the zero obs.Runtime runs on the
// default pool, untraced.
func MedianBackground(frames []*img.Image, step int, rt obs.Runtime) (*img.Image, error) {
	if len(frames) == 0 {
		return nil, errors.New("detect: no frames for background")
	}
	if step < 1 {
		step = 1
	}
	w, h := frames[0].W, frames[0].H
	var sample []*img.Image
	for i := 0; i < len(frames); i += step {
		f := frames[i]
		if f.W != w || f.H != h {
			return nil, fmt.Errorf("detect: frame %d size mismatch", i)
		}
		sample = append(sample, f)
	}
	out := img.New(w, h)
	n := len(sample)
	rt.Span.Add(obs.CBGFramesSampled, int64(n))
	// Each channel value is an independent median, so the pixel plane shards
	// over the worker pool; workers read the shared frame stack and write
	// disjoint ranges of out.Pix, keeping the result bit-identical to the
	// serial loop at any worker count.
	rt.Pool.For(w*h*3, 4096, func(lo, hi int) {
		vals := make([]uint8, n)
		for idx := lo; idx < hi; idx++ {
			for s, f := range sample {
				vals[s] = f.Pix[idx]
			}
			out.Pix[idx] = img.MedianU8(vals)
		}
	})
	return out, nil
}

// AutoStep returns the automatic background-sampling stride for an n-frame
// clip: floor(n/40), at least 1. It targets ~40 sampled frames and never
// samples fewer than 9 (or the whole clip when that is shorter) — a thin
// median stack lets moving objects bleed into the background model. No
// clamp is needed for that: a stride of floor(n/40) always leaves at least
// 40 samples.
func AutoStep(n int) int {
	if step := n / 40; step > 1 {
		return step
	}
	return 1
}

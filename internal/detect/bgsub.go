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

// Detect finds foreground boxes in the frame: the 8-connected components
// of the pixels whose img.ColorDiffPlane value reaches Threshold, in the
// raster order of their first pixel, then MinArea, MaxBoxFrac and NMS.
// All state is local to the call, so concurrent calls are safe.
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

	// The foreground test of every diff value, compared as float64 so it
	// is exact for any Threshold.
	var fg [256]bool
	for d := range fg {
		fg[d] = float64(d) >= b.Threshold
	}

	maxFrac := b.MaxBoxFrac
	if maxFrac <= 0 {
		maxFrac = 0.25
	}
	var out []Detection
	for _, c := range components(diff, w, h, &fg) {
		if c.area < b.MinArea {
			continue
		}
		box := geom.R(c.minX, c.minY, c.maxX, c.maxY)
		if float64(box.Area()) > maxFrac*float64(w*h) {
			continue
		}
		// The sum is an exact integer, so the score has the bits of any
		// float64 running sum of the same values.
		out = append(out, Detection{Box: box, Score: float64(c.sum) / float64(c.area)})
	}
	return NMS(out, 0.5), nil
}

// run is a maximal span [x0, x1) of foreground pixels in row y, with the
// sum of their diff values. parent links it into a union-find forest over
// the runs: it holds a smaller run index, or the run's own index at the
// root of a set, so a root is its set's first run in raster order. Once
// the components are built it holds the run's component index.
type run struct {
	y, x0, x1, sum, parent int
}

// component is one 8-connected foreground component: its bounding box
// [minX, maxX) × [minY, maxY), pixel count and diff sum.
type component struct {
	minX, minY, maxX, maxY, area, sum int
}

// components labels the 8-connected foreground of a w×h diff plane by row
// runs and union-find. A run joins each run of the row above whose span
// touches its own once one of them is widened by a pixel on both sides.
// Components come back in the raster order of their first pixel.
func components(diff []uint8, w, h int, fg *[256]bool) []component {
	var runs []run
	above := 0 // the first run of row y-1
	for y := 0; y < h; y++ {
		row := diff[y*w : y*w+w]
		here := len(runs) // the first run of row y
		q := above        // runs of row y-1 before q end left of every later run
		for x := 0; x < len(row); x++ {
			if !fg[row[x]] {
				continue
			}
			x0, sum := x, 0
			for ; x < len(row) && fg[row[x]]; x++ {
				sum += int(row[x])
			}
			i := len(runs)
			runs = append(runs, run{y: y, x0: x0, x1: x, sum: sum, parent: i})
			for q < here && runs[q].x1 < x0 {
				q++
			}
			for k := q; k < here && runs[k].x0 <= x; k++ {
				union(runs, i, k)
			}
		}
		above = here
	}

	// In run order, a root opens the next component and relabels itself
	// with its index; any other run takes its parent's label, which is
	// already relabelled because the parent has a smaller index.
	comps := make([]component, 0, len(runs))
	for i := range runs {
		r := &runs[i]
		if r.parent == i {
			r.parent = len(comps)
			comps = append(comps, component{minX: r.x0, minY: r.y, maxX: r.x1})
		} else {
			r.parent = runs[r.parent].parent
		}
		c := &comps[r.parent]
		c.minX = min(c.minX, r.x0)
		c.maxX = max(c.maxX, r.x1)
		c.maxY = r.y + 1
		c.area += r.x1 - r.x0
		c.sum += r.sum
	}
	return comps
}

// union merges the sets of runs i and j under the smaller root.
func union(runs []run, i, j int) {
	i, j = find(runs, i), find(runs, j)
	if i < j {
		runs[j].parent = i
	} else if j < i {
		runs[i].parent = j
	}
}

// find returns the root of run i's set, halving the path on the way.
func find(runs []run, i int) int {
	for runs[i].parent != i {
		runs[i].parent = runs[runs[i].parent].parent
		i = runs[i].parent
	}
	return i
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

package inpaint

import (
	"errors"
	"fmt"
	"math"

	"verro/internal/geom"
	"verro/internal/img"
	"verro/internal/motio"
	"verro/internal/obs"
)

// MaskDilation is how far object boxes are grown before background
// reconstruction, to swallow anti-aliased borders and small tracker error.
const MaskDilation = 2

// FrameMask builds the removal mask for frame k from the tracked objects.
func FrameMask(w, h, k int, tracks *motio.TrackSet) *Mask {
	m := NewMask(w, h)
	for _, t := range tracks.Tracks {
		if b, ok := t.Box(k); ok {
			m.SetRect(b, true)
		}
	}
	return m.Dilate(MaskDilation)
}

// StaticBackgroundSamples reconstructs the single background scene of a
// static-camera clip from its sampled frames and their clip indices: each
// pixel takes the median of its values over the samples in which no object
// covers it, and pixels covered in every sample are filled with Criminisi
// inpainting. The streaming driver passes the frames it retained while
// windows flowed by (bounded at ~40 samples by detect.AutoStep, so
// retention is O(1) in clip length). The sampled-frame count lands on
// rt.Span and the hole fill runs on rt.
func StaticBackgroundSamples(w, h int, samples []*img.Image, indices []int, tracks *motio.TrackSet, cfg Config, rt obs.Runtime) (*img.Image, error) {
	return medianScene(w, h, w, nil, samples, indices, tracks, cfg, rt)
}

// medianScene is the masked per-pixel median stack under both camera
// models. Sample i lands in a panW-wide scene at column offsets[indices[i]]
// (offset 0 for every sample when offsets is nil: the static camera); each
// scene pixel takes the per-channel median of the sample values no object
// covered, and the pixels no sample saw uncovered are inpainted. A scene
// with no uncovered pixel at all fails with a wrapped ErrAllMasked.
func medianScene(w, h, panW int, offsets []int, samples []*img.Image, indices []int, tracks *motio.TrackSet, cfg Config, rt obs.Runtime) (*img.Image, error) {
	if len(samples) == 0 {
		return nil, errors.New("inpaint: empty video")
	}
	rt.Span.Add(obs.CBGFramesSampled, int64(len(samples)))
	ns := min(len(samples), len(indices))
	// unmasked calls fn for every sample pixel no object covers, in sample
	// order, with the scene pixel it lands on and its RGB triple.
	unmasked := func(fn func(p int, rgb []uint8)) {
		for i := 0; i < ns; i++ {
			k := indices[i]
			mask := FrameMask(w, h, k, tracks)
			off := 0
			if offsets != nil {
				off = offsets[k]
			}
			pix := samples[i].Pix
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					if q := y*w + x; !mask.Bits[q] {
						fn(y*panW+x+off, pix[q*3:q*3+3])
					}
				}
			}
		}
	}
	// The per-pixel stacks share one buffer: a counting pass sizes them,
	// a filling pass writes them. Pixel p owns vals[3*start[p]:3*start[p+1]],
	// channel-major, so each channel's samples are one contiguous run.
	start := make([]int, panW*h+1)
	unmasked(func(p int, _ []uint8) { start[p+1]++ })
	for p := 1; p < len(start); p++ {
		start[p] += start[p-1]
	}
	vals := make([]uint8, 3*start[panW*h])
	written := make([]int, panW*h)
	unmasked(func(p int, rgb []uint8) {
		n := start[p+1] - start[p]
		at := 3*start[p] + written[p]
		vals[at], vals[at+n], vals[at+2*n] = rgb[0], rgb[1], rgb[2]
		written[p]++
	})
	out := img.New(panW, h)
	hole := NewMask(panW, h)
	holes := 0
	for p := range hole.Bits {
		n := start[p+1] - start[p]
		if n == 0 {
			hole.Bits[p] = true
			holes++
			continue
		}
		stack := vals[3*start[p] : 3*start[p+1]]
		for c := 0; c < 3; c++ {
			out.Pix[p*3+c] = img.MedianU8(stack[c*n : c*n+n])
		}
	}
	if holes > 0 {
		filled, err := Inpaint(out, hole, cfg, rt)
		if err != nil {
			return nil, fmt.Errorf("inpaint: filling %d always-covered pixels: %w", holes, err)
		}
		out = filled
	}
	return out, nil
}

// DefaultPanShift is the ±search window (in columns) the pipeline uses for
// pairwise pan estimation.
const DefaultPanShift = 12

// ColumnProfile returns the mean luma of each column — the pure per-frame
// half of pan estimation. The sanitizer's analysis sweep calls it once per
// frame (keeping the previous frame's profile across a window boundary
// instead of retaining pixels) and integrates the pairwise BestShift
// results into per-frame offsets: the horizontal camera offset of every
// frame relative to frame 0.
func ColumnProfile(f *img.Image) []float64 {
	out := make([]float64, f.W)
	// Row by row, so each column still sums in y order.
	for y := 0; y < f.H; y++ {
		row := f.Pix[y*f.W*3:][:len(out)*3]
		for x := range out {
			p := row[x*3 : x*3+3]
			out[x] += float64(img.RGB{R: p[0], G: p[1], B: p[2]}.Gray())
		}
	}
	for x := range out {
		out[x] /= float64(f.H)
	}
	return out
}

// BestShift finds the s in [-maxShift, maxShift] minimizing the mean
// absolute difference of prev[x+s] and cur[x] — cheap and robust for the
// horizontally panning sequences VERRO's evaluation uses.
func BestShift(prev, cur []float64, maxShift int) int {
	if maxShift < 1 {
		maxShift = 8
	}
	best := 0
	bestSAD := math.Inf(1)
	for s := -maxShift; s <= maxShift; s++ {
		var sad float64
		n := 0
		for x := 0; x < len(cur); x++ {
			px := x + s
			if px < 0 || px >= len(prev) {
				continue
			}
			sad += math.Abs(prev[px] - cur[x])
			n++
		}
		if n == 0 {
			continue
		}
		sad /= float64(n)
		if sad < bestSAD {
			bestSAD = sad
			best = s
		}
	}
	return best
}

// MovingBackground reconstructs per-frame backgrounds for a panning-camera
// video: frames are aligned into panorama coordinates using the estimated
// pan offsets, a per-pixel median panorama is stacked from unmasked pixels,
// remaining holes are inpainted, and each frame's background is the
// panorama viewport at its offset.
type MovingBackground struct {
	Panorama *img.Image
	Offsets  []int // pan offset per frame, normalized to min 0
	W, H     int
}

// BuildMovingBackgroundSamples builds the panorama background from raw
// (un-normalized, frame-0-relative) pan offsets for every frame plus the
// sampled frames feeding the temporal median; the sanitizer's analysis pass
// supplies both. It runs the static reconstruction's median stack with each
// sample shifted to its pan offset.
func BuildMovingBackgroundSamples(w, h int, offsets []int, samples []*img.Image, indices []int, tracks *motio.TrackSet, cfg Config, rt obs.Runtime) (*MovingBackground, error) {
	if len(offsets) == 0 {
		return nil, errors.New("inpaint: empty video")
	}
	// Normalize offsets to be ≥ 0.
	offsets = append([]int(nil), offsets...)
	minOff := offsets[0]
	maxOff := offsets[0]
	for _, o := range offsets {
		if o < minOff {
			minOff = o
		}
		if o > maxOff {
			maxOff = o
		}
	}
	for i := range offsets {
		offsets[i] -= minOff
	}
	pano, err := medianScene(w, h, w+(maxOff-minOff), offsets, samples, indices, tracks, cfg, rt)
	if err != nil {
		return nil, err
	}
	return &MovingBackground{Panorama: pano, Offsets: offsets, W: w, H: h}, nil
}

// FrameBackground returns the background scene for frame k.
func (mb *MovingBackground) FrameBackground(k int) (*img.Image, error) {
	if k < 0 || k >= len(mb.Offsets) {
		return nil, fmt.Errorf("inpaint: frame %d out of range [0,%d)", k, len(mb.Offsets))
	}
	off := geom.Clamp(mb.Offsets[k], 0, mb.Panorama.W-mb.W)
	return mb.Panorama.SubImage(geom.RectAt(off, 0, mb.W, mb.H)), nil
}

// Scenes is the uniform background-provider the sanitizer consumes: one
// background image per frame, whatever the camera model.
type Scenes interface {
	Background(frame int) (*img.Image, error)
}

// staticScenes adapts a single background image.
type staticScenes struct{ bg *img.Image }

func (s staticScenes) Background(int) (*img.Image, error) { return s.bg, nil }

// NewStaticScenes wraps one background image as a Scenes provider.
func NewStaticScenes(bg *img.Image) Scenes { return staticScenes{bg} }

// Background implements Scenes for the moving-camera model.
func (mb *MovingBackground) Background(k int) (*img.Image, error) {
	return mb.FrameBackground(k)
}

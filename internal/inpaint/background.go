package inpaint

import (
	"errors"
	"fmt"
	"math"
	"sort"

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
	// Per-pixel value collection (uint8 per channel) over unmasked frames.
	vals := make([][]uint8, panW*h*3)
	ns := len(samples)
	if len(indices) < ns {
		ns = len(indices)
	}
	for i := 0; i < ns; i++ {
		f := samples[i]
		k := indices[i]
		mask := FrameMask(w, h, k, tracks)
		off := 0
		if offsets != nil {
			off = offsets[k] //lint:allow bce indices hold frame numbers < len(offsets) by construction; the relation is invisible to the interval domain
		}
		for y := 0; y < h; y++ {
			vrow := vals[y*panW*3 : y*panW*3+panW*3]
			prow := f.Pix[y*w*3 : y*w*3+w*3]
			for x := 0; x < w; x++ {
				if mask.At(x, y) {
					continue
				}
				vp := vrow[(x+off)*3 : (x+off)*3+3]
				pp := prow[x*3 : x*3+3]
				for c := 0; c < 3; c++ {
					vp[c] = append(vp[c], pp[c])
				}
			}
		}
	}
	out := img.New(panW, h)
	hole := NewMask(panW, h)
	holes := 0
	for i := range hole.Bits {
		v3 := vals[i*3 : i*3+3]
		if len(v3[0]) == 0 {
			hole.Bits[i] = true
			holes++
			continue
		}
		p3 := out.Pix[i*3 : i*3+3]
		for c := 0; c < 3; c++ {
			p3[c] = img.MedianU8(v3[c])
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
// half of pan estimation. The sanitizer's pan stage calls it frame by frame
// (recomputing the overlap frame's profile instead of retaining pixels) and
// integrates the pairwise BestShift results into per-frame offsets: the
// horizontal camera offset of every frame relative to frame 0.
func ColumnProfile(f *img.Image) []float64 {
	out := make([]float64, f.W)
	for x := range out {
		var sum float64
		for y := 0; y < f.H; y++ {
			sum += float64(f.At(x, y).Gray())
		}
		out[x] = sum / float64(f.H)
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

// SortedOffsets returns a copy of the distinct pan offsets in ascending
// order; exported for diagnostics and tests.
func (mb *MovingBackground) SortedOffsets() []int {
	seen := map[int]bool{}
	out := make([]int, 0, len(mb.Offsets))
	for _, o := range mb.Offsets {
		if !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	sort.Ints(out)
	return out
}

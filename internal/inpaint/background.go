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
	"verro/internal/vid"
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

// StaticBackground reconstructs the single background scene of a
// static-camera video: each pixel takes the median of its values over the
// frames in which no object covers it; pixels covered in every sampled
// frame are then filled with Criminisi inpainting. The sampled-frame count
// lands on rt.Span and the hole fill runs on rt.
func StaticBackground(v *vid.Video, tracks *motio.TrackSet, step int, cfg Config, rt obs.Runtime) (*img.Image, error) {
	if v.Len() == 0 {
		return nil, errors.New("inpaint: empty video")
	}
	samples, indices := stride(v.Frames, step)
	return StaticBackgroundSamples(v.W, v.H, samples, indices, tracks, cfg, rt)
}

// stride picks every step-th frame with its clip index: the
// `for k := 0; k < n; k += step` sampling of the background median.
func stride(frames []*img.Image, step int) ([]*img.Image, []int) {
	if step < 1 {
		step = 1
	}
	n := (len(frames) + step - 1) / step
	samples := make([]*img.Image, 0, n)
	indices := make([]int, 0, n)
	for k, f := range frames {
		if k%step != 0 {
			continue
		}
		samples = append(samples, f)
		indices = append(indices, k)
	}
	return samples, indices
}

// StaticBackgroundSamples reconstructs the static background from an
// explicit list of sampled frames and their clip indices. StaticBackground
// passes the strided frames of an in-memory clip; the streaming driver
// passes the frames it retained while windows flowed by (bounded at ~40
// samples by detect.AutoStep, so retention is O(1) in clip length). Both
// orders are identical, so the per-pixel median stacks — and the output —
// are bit-identical.
func StaticBackgroundSamples(w, h int, samples []*img.Image, indices []int, tracks *motio.TrackSet, cfg Config, rt obs.Runtime) (*img.Image, error) {
	if len(samples) == 0 {
		return nil, errors.New("inpaint: empty video")
	}
	rt.Span.Add(obs.CBGFramesSampled, int64(len(samples)))
	// Per-pixel value collection (uint8 per channel) over unmasked frames.
	vals := make([][]uint8, w*h*3)
	ns := len(samples)
	if len(indices) < ns {
		ns = len(indices)
	}
	for i := 0; i < ns; i++ {
		f := samples[i]
		mask := FrameMask(w, h, indices[i], tracks)
		for y := 0; y < h; y++ {
			off := y * w * 3
			vrow := vals[off : off+w*3]
			prow := f.Pix[off : off+w*3]
			for x := 0; x < w; x++ {
				if mask.At(x, y) {
					continue
				}
				vp := vrow[x*3 : x*3+3]
				pp := prow[x*3 : x*3+3]
				for c := 0; c < 3; c++ {
					vp[c] = append(vp[c], pp[c])
				}
			}
		}
	}
	out := img.New(w, h)
	hole := NewMask(w, h)
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
			p3[c] = medianU8(v3[c])
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

func medianU8(vals []uint8) uint8 {
	var counts [256]int
	for _, v := range vals {
		counts[v]++
	}
	mid := (len(vals) - 1) / 2
	cum := 0
	for v := 0; v < 256; v++ {
		cum += counts[v]
		if cum > mid {
			return uint8(v)
		}
	}
	return 255
}

// DefaultPanShift is the ±search window (in columns) the pipeline uses for
// pairwise pan estimation.
const DefaultPanShift = 12

// EstimatePan estimates the horizontal camera offset of every frame
// relative to frame 0 by integrating frame-to-frame shifts. Each pairwise
// shift is found by minimizing the sum of absolute differences of row-mean
// luma profiles over a ±maxShift window — cheap and robust for the
// horizontally panning sequences VERRO's evaluation uses.
func EstimatePan(v *vid.Video, maxShift int) ([]int, error) {
	if v.Len() == 0 {
		return nil, errors.New("inpaint: empty video")
	}
	profiles := make([][]float64, v.Len())
	for k := range profiles {
		profiles[k] = ColumnProfile(v.Frame(k))
	}
	offsets := make([]int, v.Len())
	n := len(profiles)
	if len(offsets) < n {
		n = len(offsets)
	}
	prev := profiles[0]
	cum := 0
	for k := 1; k < n; k++ {
		p := profiles[k]
		cum += BestShift(prev, p, maxShift)
		offsets[k] = cum
		prev = p
	}
	return offsets, nil
}

// ColumnProfile returns the mean luma of each column — the pure per-frame
// half of pan estimation. The streaming pan stage calls this frame by frame
// (recomputing the overlap frame's profile instead of retaining pixels) and
// integrates the pairwise BestShift results exactly as EstimatePan does, so
// the two paths produce identical offsets.
func ColumnProfile(f *img.Image) []float64 {
	out := make([]float64, f.W) //lint:allow hotalloc constructor: the profile is the product, retained by the caller
	for x := range out {
		var sum float64
		for y := 0; y < f.H; y++ {
			sum += float64(f.At(x, y).Gray())
		}
		out[x] = sum / float64(f.H)
	}
	return out
}

// BestShift finds s minimizing SAD(prev[x+s], cur[x]).
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

// BuildMovingBackground computes the panorama background model of an
// in-memory clip on rt.
func BuildMovingBackground(v *vid.Video, tracks *motio.TrackSet, step int, cfg Config, rt obs.Runtime) (*MovingBackground, error) {
	offsets, err := EstimatePan(v, DefaultPanShift)
	if err != nil {
		return nil, err
	}
	samples, indices := stride(v.Frames, step)
	return BuildMovingBackgroundSamples(v.W, v.H, offsets, samples, indices, tracks, cfg, rt)
}

// BuildMovingBackgroundSamples builds the panorama background from raw
// (un-normalized, frame-0-relative) pan offsets for every frame plus the
// sampled frames feeding the temporal median. The streaming analysis pass
// supplies offsets from its pan stage and the samples it retained;
// BuildMovingBackground supplies EstimatePan output and the strided frames.
// Identical inputs in identical order make the panorama bit-identical
// across the two.
func BuildMovingBackgroundSamples(w, h int, offsets []int, samples []*img.Image, indices []int, tracks *motio.TrackSet, cfg Config, rt obs.Runtime) (*MovingBackground, error) {
	if len(offsets) == 0 || len(samples) == 0 {
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
	panW := w + (maxOff - minOff)
	rt.Span.Add(obs.CBGFramesSampled, int64(len(samples)))

	vals := make([][]uint8, panW*h*3)
	ns := len(samples)
	if len(indices) < ns {
		ns = len(indices)
	}
	for i := 0; i < ns; i++ {
		f := samples[i]
		k := indices[i]
		mask := FrameMask(w, h, k, tracks)
		off := offsets[k] //lint:allow bce indices hold frame numbers < len(offsets) by construction; the relation is invisible to the interval domain
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
	pano := img.New(panW, h)
	hole := NewMask(panW, h)
	holes := 0
	for i := range hole.Bits {
		v3 := vals[i*3 : i*3+3]
		if len(v3[0]) == 0 {
			hole.Bits[i] = true
			holes++
			continue
		}
		p3 := pano.Pix[i*3 : i*3+3]
		for c := 0; c < 3; c++ {
			p3[c] = medianU8(v3[c])
		}
	}
	if holes > 0 && holes < panW*h {
		filled, err := Inpaint(pano, hole, cfg, rt)
		if err != nil {
			return nil, fmt.Errorf("inpaint: panorama holes: %w", err)
		}
		pano = filled
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

// ExtractScenes picks the right reconstruction for the video's camera
// model and returns a per-frame background provider. step subsamples the
// frames feeding the temporal median. Reconstruction shards over rt.Pool
// and frame/patch counters land on rt.Span.
func ExtractScenes(v *vid.Video, tracks *motio.TrackSet, step int, cfg Config, rt obs.Runtime) (Scenes, error) {
	if v.Moving {
		return BuildMovingBackground(v, tracks, step, cfg, rt)
	}
	bg, err := StaticBackground(v, tracks, step, cfg, rt)
	if err != nil {
		return nil, err
	}
	return NewStaticScenes(bg), nil
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

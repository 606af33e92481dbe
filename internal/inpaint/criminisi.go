// Package inpaint implements the background-scene reconstruction VERRO's
// Phase II needs: the Criminisi exemplar-based region-filling algorithm
// [11] (priority-ordered patch copying along the fill front) plus temporal
// background extraction — per-pixel medians for static cameras, and
// pan-compensated panorama stacking for moving cameras.
package inpaint

import (
	"errors"
	"fmt"
	"math"

	"verro/internal/geom"
	"verro/internal/img"
	"verro/internal/obs"
	"verro/internal/par"
)

// Mask marks the pixels to fill (true = unknown/removed).
type Mask struct {
	W, H int
	Bits []bool
}

// NewMask returns an all-false mask.
func NewMask(w, h int) *Mask {
	return &Mask{W: w, H: h, Bits: make([]bool, w*h)}
}

// At reports the mask at (x, y); out-of-bounds is false.
func (m *Mask) At(x, y int) bool {
	if x < 0 || y < 0 || x >= m.W || y >= m.H {
		return false
	}
	return m.Bits[y*m.W+x]
}

// Set writes the mask at (x, y); out-of-bounds writes are dropped.
func (m *Mask) Set(x, y int, v bool) {
	if x < 0 || y < 0 || x >= m.W || y >= m.H {
		return
	}
	m.Bits[y*m.W+x] = v
}

// SetRect marks rectangle r.
func (m *Mask) SetRect(r geom.Rect, v bool) {
	r = r.Clip(geom.R(0, 0, m.W, m.H))
	for y := r.Min.Y; y < r.Max.Y; y++ {
		row := m.Bits[y*m.W+r.Min.X : y*m.W+r.Max.X]
		for x := range row {
			row[x] = v
		}
	}
}

// Count returns the number of masked pixels.
func (m *Mask) Count() int {
	n := 0
	for _, b := range m.Bits {
		if b {
			n++
		}
	}
	return n
}

// Clone deep-copies the mask.
func (m *Mask) Clone() *Mask {
	out := NewMask(m.W, m.H)
	copy(out.Bits, m.Bits)
	return out
}

// Dilate grows the mask by radius pixels (Chebyshev metric), used to make
// sure object borders and shadows are removed along with the object.
func (m *Mask) Dilate(radius int) *Mask {
	if radius <= 0 {
		return m.Clone()
	}
	out := NewMask(m.W, m.H)
	for y := 0; y < m.H; y++ {
		row := m.Bits[y*m.W : y*m.W+m.W]
		for x := range row {
			if !row[x] {
				continue
			}
			for dy := -radius; dy <= radius; dy++ {
				for dx := -radius; dx <= radius; dx++ {
					out.Set(x+dx, y+dy, true)
				}
			}
		}
	}
	return out
}

// Config tunes the Criminisi algorithm.
type Config struct {
	// PatchSize is the (odd) side of the square patch; 0 means 7.
	PatchSize int
	// SearchRadius limits the source-patch search to a window around the
	// target (a standard speedup); 0 means 40.
	SearchRadius int
}

// DefaultConfig returns parameters balanced for ~384×216 frames.
func DefaultConfig() Config { return Config{PatchSize: 7, SearchRadius: 40} }

// Errors.
var (
	ErrMaskSize  = errors.New("inpaint: mask does not match image")
	ErrAllMasked = errors.New("inpaint: no source pixels available")
)

// Inpaint fills the masked region of src and returns a new image; src is
// not modified. It follows Criminisi et al.: repeatedly pick the fill-front
// patch with maximum priority (confidence × data term), copy the best
// matching source patch over its unknown pixels, and update confidences.
// The front scan and SSD search shard over rt.Pool, and every filled patch
// counts on rt.Span; the zero obs.Runtime runs on the default pool,
// untraced.
func Inpaint(src *img.Image, mask *Mask, cfg Config, rt obs.Runtime) (*img.Image, error) {
	if mask.W != src.W || mask.H != src.H {
		return nil, fmt.Errorf("%w: %dx%d vs %dx%d", ErrMaskSize, mask.W, mask.H, src.W, src.H)
	}
	if cfg.PatchSize <= 0 {
		cfg.PatchSize = 7
	}
	if cfg.PatchSize%2 == 0 {
		cfg.PatchSize++
	}
	if cfg.SearchRadius <= 0 {
		cfg.SearchRadius = 40
	}

	out := src.Clone()
	work := mask.Clone()
	remaining := work.Count()
	if remaining == 0 {
		return out, nil
	}
	if remaining == src.W*src.H {
		return nil, ErrAllMasked
	}

	half := cfg.PatchSize / 2
	w, h := src.W, src.H

	// Confidence: 1 for known pixels, 0 for unknown.
	conf := make([]float64, len(work.Bits))
	for i, masked := range work.Bits {
		if !masked {
			conf[i] = 1
		}
	}

	bounds := geom.R(0, 0, w, h)
	maxIter := remaining + w + h
	type cand struct {
		x, y     int
		priority float64
	}
	for iter := 0; remaining > 0 && iter < maxIter; iter++ {
		// Collect fill-front pixels: masked with at least one known
		// 4-neighbour. The scan reads only frozen per-iteration state
		// (image, mask, confidences, gradients), so rows are scored on the
		// worker pool and reduced in row order; strict > keeps the serial
		// scan's first-maximum tie-breaking.
		gx, gy := out.Gradients() // isophotes of current (partially filled) image
		rowBests := par.MapPool(rt.Pool, h, 8, func(y int) cand {
			best := cand{x: -1, priority: -1}
			for x := 0; x < w; x++ {
				if !work.At(x, y) || !onFront(work, x, y) {
					continue
				}
				c := patchConfidence(conf, work, x, y, half, w, h)
				d := dataTerm(gx, gy, work, x, y, w, h)
				if p := c * d; p > best.priority {
					best = cand{x: x, y: y, priority: p}
				}
			}
			return best
		})
		best := cand{x: -1, priority: -1}
		for _, rb := range rowBests {
			if rb.x >= 0 && rb.priority > best.priority {
				best = rb
			}
		}
		if best.x < 0 {
			break // no front found (should not happen while remaining > 0)
		}

		target := geom.CenteredRect(geom.Pt(best.x, best.y), cfg.PatchSize, cfg.PatchSize).Clip(bounds)

		srcPatch, ok := findSource(out, work, target, cfg.SearchRadius, rt.Pool)
		if !ok {
			// Fall back to a global search once; if that fails, fill with the
			// mean of known neighbours to guarantee progress.
			srcPatch, ok = findSource(out, work, target, w+h, rt.Pool)
		}
		cHere := patchConfidence(conf, work, best.x, best.y, half, w, h)
		if ok {
			copyPatch(out, work, conf, target, srcPatch, cHere, &remaining)
		} else {
			fillWithNeighbourMean(out, work, conf, target, cHere, &remaining)
		}
		rt.Span.Add(obs.CPatchesInpainted, 1)
	}
	if remaining > 0 {
		// Last-resort sweep (tiny disconnected specks).
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if work.At(x, y) {
					out.Set(x, y, neighbourMean(out, work, x, y))
					work.Set(x, y, false)
				}
			}
		}
	}
	return out, nil
}

// onFront reports whether masked pixel (x, y) borders a known pixel.
func onFront(work *Mask, x, y int) bool {
	return !work.At(x-1, y) || !work.At(x+1, y) || !work.At(x, y-1) || !work.At(x, y+1)
}

// patchConfidence averages confidence over the patch.
func patchConfidence(conf []float64, work *Mask, cx, cy, half, w, h int) float64 {
	x0, x1 := max(0, cx-half), min(w-1, cx+half)
	y0, y1 := max(0, cy-half), min(h-1, cy+half)
	if x0 > x1 || y0 > y1 {
		return 0
	}
	var sum float64
	n := 0
	for y := y0; y <= y1; y++ {
		row := conf[y*w+x0 : y*w+x1+1]
		for x := range row {
			sum += row[x]
		}
		n += len(row)
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// dataTerm approximates |∇I⊥ · n| at the front pixel: the isophote
// strength perpendicular to the front normal. We use the strongest known
// neighbouring gradient rotated 90°, dotted with the mask-boundary normal.
func dataTerm(gx, gy []float64, work *Mask, x, y, w, h int) float64 {
	// Front normal from the mask gradient (known = 0, unknown = 1).
	nX := float64(b2i(work.At(x+1, y)) - b2i(work.At(x-1, y)))
	nY := float64(b2i(work.At(x, y+1)) - b2i(work.At(x, y-1)))
	nn := math.Hypot(nX, nY)
	if nn == 0 {
		return 1e-3
	}
	nX /= nn
	nY /= nn
	// Strongest isophote among known neighbours.
	var bestIx, bestIy, bestMag float64
	for dy := -1; dy <= 1; dy++ {
		qy := y + dy
		if qy < 0 || qy >= h {
			continue
		}
		gxRow := gx[qy*w : qy*w+w]
		gyRow := gy[qy*w : qy*w+w]
		for dx := -1; dx <= 1; dx++ {
			qx := x + dx
			// One range guard per slice lets the compiler drop both checks.
			if qx < 0 || qx >= len(gxRow) {
				continue
			}
			if qx < 0 || qx >= len(gyRow) {
				continue
			}
			if work.At(qx, qy) {
				continue
			}
			// Isophote = gradient rotated 90°.
			ix, iy := -gyRow[qx], gxRow[qx]
			mag := math.Hypot(ix, iy)
			if mag > bestMag {
				bestIx, bestIy, bestMag = ix, iy, mag
			}
		}
	}
	d := math.Abs(bestIx*nX+bestIy*nY) / 255
	if d < 1e-3 {
		d = 1e-3
	}
	return d
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// findSource searches for the fully known patch most similar (SSD over
// known target pixels) to the target patch within the search radius.
func findSource(out *img.Image, work *Mask, target geom.Rect, radius int, pool *par.Pool) (geom.Rect, bool) {
	w, h := out.W, out.H
	tw, th := target.Dx(), target.Dy()
	cx, cy := target.Center().X, target.Center().Y
	x0 := geom.Clamp(cx-radius, 0, w-tw)
	x1 := geom.Clamp(cx+radius, 0, w-tw)
	y0 := geom.Clamp(cy-radius, 0, h-th)
	y1 := geom.Clamp(cy+radius, 0, h-th)

	skip := func(dx, dy int) bool {
		return work.At(target.Min.X+dx, target.Min.Y+dy)
	}

	// The SSD scan dominates inpainting cost. Source rows are scored on the
	// worker pool (reads only: image, mask) and reduced in row order with a
	// strict < comparison, which selects the same first-encountered minimum
	// as the serial row-major scan — ties cannot change the winner.
	type rowBest struct {
		ssd   float64
		rect  geom.Rect
		found bool
	}
	rows := par.MapPool(pool, y1-y0+1, 1, func(r int) rowBest {
		sy := y0 + r
		best := rowBest{ssd: math.Inf(1)}
		for sx := x0; sx <= x1; sx++ {
			if sx == target.Min.X && sy == target.Min.Y {
				continue
			}
			if !patchFullyKnown(work, sx, sy, tw, th) {
				continue
			}
			cand := geom.RectAt(sx, sy, tw, th)
			if ssd := img.SSD(out, target, out, cand, skip); ssd < best.ssd {
				best = rowBest{ssd: ssd, rect: cand, found: true}
			}
		}
		return best
	})
	bestSSD := math.Inf(1)
	var best geom.Rect
	found := false
	for _, r := range rows {
		if r.found && r.ssd < bestSSD {
			bestSSD = r.ssd
			best = r.rect
			found = true
		}
	}
	return best, found
}

func patchFullyKnown(work *Mask, x, y, w, h int) bool {
	for dy := 0; dy < h; dy++ {
		for dx := 0; dx < w; dx++ {
			if work.At(x+dx, y+dy) {
				return false
			}
		}
	}
	return true
}

// copyPatch copies unknown target pixels from the source patch and updates
// the bookkeeping.
func copyPatch(out *img.Image, work *Mask, conf []float64, target, src geom.Rect, cHere float64, remaining *int) {
	for dy := 0; dy < target.Dy(); dy++ {
		ty := target.Min.Y + dy
		crow := conf[ty*out.W+target.Min.X : ty*out.W+target.Max.X]
		for dx := range crow {
			tx := target.Min.X + dx
			if !work.At(tx, ty) {
				continue
			}
			out.Set(tx, ty, out.At(src.Min.X+dx, src.Min.Y+dy))
			work.Set(tx, ty, false)
			crow[dx] = cHere
			*remaining--
		}
	}
}

// fillWithNeighbourMean fills unknown target pixels with the mean of their
// known neighbours — the guaranteed-progress fallback.
func fillWithNeighbourMean(out *img.Image, work *Mask, conf []float64, target geom.Rect, cHere float64, remaining *int) {
	for dy := 0; dy < target.Dy(); dy++ {
		ty := target.Min.Y + dy
		crow := conf[ty*out.W+target.Min.X : ty*out.W+target.Max.X]
		for dx := range crow {
			tx := target.Min.X + dx
			if !work.At(tx, ty) || !onFront(work, tx, ty) {
				continue
			}
			out.Set(tx, ty, neighbourMean(out, work, tx, ty))
			work.Set(tx, ty, false)
			crow[dx] = cHere * 0.5
			*remaining--
		}
	}
}

// neighbourMean averages the known 8-neighbourhood of (x, y); if none is
// known it returns the current pixel.
func neighbourMean(out *img.Image, work *Mask, x, y int) img.RGB {
	var r, g, b, n int
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			qx, qy := x+dx, y+dy
			if qx < 0 || qy < 0 || qx >= out.W || qy >= out.H || work.At(qx, qy) {
				continue
			}
			c := out.At(qx, qy)
			r += int(c.R)
			g += int(c.G)
			b += int(c.B)
			n++
		}
	}
	if n == 0 {
		return out.At(x, y)
	}
	return img.RGB{R: uint8(r / n), G: uint8(g / n), B: uint8(b / n)}
}

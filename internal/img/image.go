// Package img implements the raster-image substrate used by the VERRO
// pipeline: an 8-bit RGB image type with HSV conversion, per-channel
// histograms, gradients, resizing, simple drawing primitives and PNG export.
// It intentionally mirrors a small subset of what the paper obtains from
// OpenCV, implemented from scratch on the standard library.
package img

import (
	"bytes"
	"fmt"

	"verro/internal/geom"
)

// RGB is a packed 24-bit color.
type RGB struct {
	R, G, B uint8
}

// Gray returns the luma of c using the Rec. 601 weights.
func (c RGB) Gray() uint8 {
	return uint8((299*int(c.R) + 587*int(c.G) + 114*int(c.B)) / 1000)
}

// Image is an 8-bit-per-channel RGB raster. Pixels are stored row-major in a
// single backing slice, three bytes per pixel.
type Image struct {
	W, H int
	Pix  []uint8 // len = W*H*3
}

// New returns a black W×H image.
func New(w, h int) *Image {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("img: negative dimensions %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]uint8, w*h*3)}
}

// NewFilled returns a W×H image filled with color c.
func NewFilled(w, h int, c RGB) *Image {
	m := New(w, h)
	pix := m.Pix
	if len(pix) == 0 {
		return m
	}
	// Seed the first pixel, then double the filled prefix with copy; this
	// replaces per-pixel stores (and their bounds checks) with memmoves.
	pix[0], pix[1], pix[2] = c.R, c.G, c.B
	for n := 3; n < len(pix); n *= 2 {
		copy(pix[n:], pix[:n])
	}
	return m
}

// Bounds returns the image rectangle anchored at the origin.
func (m *Image) Bounds() geom.Rect { return geom.R(0, 0, m.W, m.H) }

// offset returns the index of pixel (x, y) in Pix.
func (m *Image) offset(x, y int) int { return (y*m.W + x) * 3 }

// At returns the pixel at (x, y). Out-of-bounds coordinates are clamped to
// the nearest edge pixel, which is the behaviour every window-based
// algorithm in this repository wants.
func (m *Image) At(x, y int) RGB {
	x = geom.Clamp(x, 0, m.W-1)
	y = geom.Clamp(y, 0, m.H-1)
	i := m.offset(x, y)
	return RGB{m.Pix[i], m.Pix[i+1], m.Pix[i+2]}
}

// InBounds reports whether (x, y) is a valid pixel coordinate.
func (m *Image) InBounds(x, y int) bool {
	return x >= 0 && x < m.W && y >= 0 && y < m.H
}

// Set writes the pixel at (x, y); out-of-bounds writes are ignored.
func (m *Image) Set(x, y int, c RGB) {
	if !m.InBounds(x, y) {
		return
	}
	i := m.offset(x, y)
	m.Pix[i], m.Pix[i+1], m.Pix[i+2] = c.R, c.G, c.B
}

// Clone returns a deep copy of m.
func (m *Image) Clone() *Image {
	out := &Image{W: m.W, H: m.H, Pix: make([]uint8, len(m.Pix))}
	copy(out.Pix, m.Pix)
	return out
}

// SubImage copies the pixels of r (clipped to the image) into a new image.
func (m *Image) SubImage(r geom.Rect) *Image {
	r = r.Clip(m.Bounds())
	out := New(r.Dx(), r.Dy())
	for y := 0; y < out.H; y++ {
		srcOff := m.offset(r.Min.X, r.Min.Y+y)
		dstOff := out.offset(0, y)
		copy(out.Pix[dstOff:dstOff+out.W*3], m.Pix[srcOff:srcOff+out.W*3])
	}
	return out
}

// blitSpan clips the copy of src at p against m and returns the source
// start (x0, y0), end (x1, y1) and the row byte width; ok is false when
// the intersection is empty.
func (m *Image) blitSpan(src *Image, p geom.Point) (x0, y0, x1, y1, w int, ok bool) {
	x0, y0 = max(0, -p.X), max(0, -p.Y)
	x1, y1 = min(src.W, m.W-p.X), min(src.H, m.H-p.Y)
	return x0, y0, x1, y1, (x1 - x0) * 3, x0 < x1 && y0 < y1
}

// Blit copies src onto m with its top-left corner at p, clipping to m.
func (m *Image) Blit(src *Image, p geom.Point) {
	x0, y0, _, y1, w, ok := m.blitSpan(src, p)
	if !ok {
		return
	}
	for y := y0; y < y1; y++ {
		so := src.offset(x0, y)
		do := m.offset(p.X+x0, p.Y+y)
		copy(m.Pix[do:do+w], src.Pix[so:so+w])
	}
}

// BlitMasked copies src onto m at p, skipping pixels equal to the mask color
// key. It is how sprites with transparent backgrounds are composited.
func (m *Image) BlitMasked(src *Image, p geom.Point, key RGB) {
	x0, y0, x1, y1, w, ok := m.blitSpan(src, p)
	if !ok {
		return
	}
	for y := y0; y < y1; y++ {
		so := src.offset(x0, y)
		do := m.offset(p.X+x0, p.Y+y)
		srcRow := src.Pix[so : so+w]
		dstRow := m.Pix[do : do+w]
		for x := 0; x < x1-x0; x++ {
			s := srcRow[x*3 : x*3+3]
			c := RGB{s[0], s[1], s[2]}
			if c == key {
				continue
			}
			d := dstRow[x*3 : x*3+3]
			d[0], d[1], d[2] = c.R, c.G, c.B
		}
	}
}

// Equal reports whether two images have identical dimensions and pixels.
func (m *Image) Equal(n *Image) bool {
	if m.W != n.W || m.H != n.H {
		return false
	}
	return bytes.Equal(m.Pix, n.Pix)
}

// DiffCount returns the number of pixels at which m and n differ. Images of
// different sizes are reported as entirely different.
func (m *Image) DiffCount(n *Image) int {
	if m.W != n.W || m.H != n.H {
		return max(m.W*m.H, n.W*n.H)
	}
	count := 0
	a, b := m.Pix, n.Pix
	for i := 0; i < m.W*m.H; i++ {
		pa := a[i*3 : i*3+3]
		pb := b[i*3 : i*3+3]
		if pa[0] != pb[0] || pa[1] != pb[1] || pa[2] != pb[2] {
			count++
		}
	}
	return count
}

// MeanAbsDiff returns the mean absolute per-channel difference between two
// images of the same size, a cheap frame-distance measure.
func (m *Image) MeanAbsDiff(n *Image) float64 {
	a, b := m.Pix, n.Pix
	if m.W != n.W || m.H != n.H || len(a) == 0 {
		return 255
	}
	// The clamp (and its zero guard, which doubles as the divisor proof)
	// is vacuous for same-sized images but lets the compiler drop both
	// bounds checks.
	k := len(a)
	if len(b) < k {
		k = len(b)
	}
	if k == 0 {
		return 255
	}
	var sum int64
	for i := 0; i < k; i++ {
		d := int64(a[i]) - int64(b[i])
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return float64(sum) / float64(k)
}

// Fill paints rectangle r (clipped) with color c.
func (m *Image) Fill(r geom.Rect, c RGB) {
	r = r.Clip(m.Bounds())
	w := r.Dx()
	for y := r.Min.Y; y < r.Max.Y; y++ {
		off := m.offset(r.Min.X, y)
		row := m.Pix[off : off+w*3]
		for x := 0; x < w; x++ {
			p := row[x*3 : x*3+3]
			p[0], p[1], p[2] = c.R, c.G, c.B
		}
	}
}

// SSD returns the sum of squared per-channel differences between the patch
// of m at rm and the patch of n at rn; both patches must have the same size
// and lie in bounds (the caller guarantees this — it is the hot loop of the
// inpainting search). Pixels where skip(x, y) reports true (coordinates
// relative to the rm patch) are excluded; skip may be nil.
func SSD(m *Image, rm geom.Rect, n *Image, rn geom.Rect, skip func(x, y int) bool) float64 {
	var sum float64
	w := rm.Dx()
	for y := 0; y < rm.Dy(); y++ {
		mo := m.offset(rm.Min.X, rm.Min.Y+y)
		no := n.offset(rn.Min.X, rn.Min.Y+y)
		mrow := m.Pix[mo : mo+w*3]
		nrow := n.Pix[no : no+w*3]
		for x := 0; x < w; x++ {
			if skip != nil && skip(x, y) {
				continue
			}
			a := mrow[x*3 : x*3+3]
			b := nrow[x*3 : x*3+3]
			for c := 0; c < 3; c++ {
				d := float64(a[c]) - float64(b[c])
				sum += d * d
			}
		}
	}
	return sum
}

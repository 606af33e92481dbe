package img

// Bit-identity harness for the hot-path rewrites: every kernel whose loops
// were restructured for speed (row slicing, subslice triples,
// clamp prologues, copy-based fills) is compared against a naive
// reference implementation — the pre-rewrite loop shape — for exact
// equality. Floating-point kernels accumulate in the same order as the
// reference, so == is the right comparison, not a tolerance.

import (
	"fmt"
	"math"
	"testing"

	"verro/internal/geom"
)

// lcgImage fills a w×h image with deterministic pseudo-random pixels
// without going through any rewritten kernel.
func lcgImage(w, h int, seed uint64) *Image {
	m := New(w, h)
	s := seed
	for i := range m.Pix {
		s = s*6364136223846793005 + 1442695040888963407
		m.Pix[i] = uint8(s >> 56)
	}
	return m
}

func wantSamePix(t *testing.T, got, want *Image, name string) {
	t.Helper()
	if got.W != want.W || got.H != want.H {
		t.Fatalf("%s: dims %dx%d != %dx%d", name, got.W, got.H, want.W, want.H)
	}
	for i := range want.Pix {
		if got.Pix[i] != want.Pix[i] {
			t.Fatalf("%s: pixel byte %d: got %d want %d", name, i, got.Pix[i], want.Pix[i])
		}
	}
}

func wantSamePlane(t *testing.T, got, want []float64, name string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d != %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d]: got %v want %v", name, i, got[i], want[i])
		}
	}
}

func TestNewFilledEquiv(t *testing.T) {
	for _, d := range []struct{ w, h int }{{0, 0}, {1, 1}, {7, 3}, {64, 48}} {
		c := RGB{R: 13, G: 200, B: 77}
		got := NewFilled(d.w, d.h, c)
		want := New(d.w, d.h)
		for i := 0; i < len(want.Pix); i += 3 {
			want.Pix[i], want.Pix[i+1], want.Pix[i+2] = c.R, c.G, c.B
		}
		wantSamePix(t, got, want, "NewFilled")
	}
}

func blitRef(m, src *Image, p geom.Point) {
	for y := 0; y < src.H; y++ {
		dy := p.Y + y
		if dy < 0 || dy >= m.H {
			continue
		}
		for x := 0; x < src.W; x++ {
			dx := p.X + x
			if dx < 0 || dx >= m.W {
				continue
			}
			si := src.offset(x, y)
			di := m.offset(dx, dy)
			m.Pix[di], m.Pix[di+1], m.Pix[di+2] = src.Pix[si], src.Pix[si+1], src.Pix[si+2]
		}
	}
}

func blitMaskedRef(m, src *Image, p geom.Point, key RGB) {
	for y := 0; y < src.H; y++ {
		dy := p.Y + y
		if dy < 0 || dy >= m.H {
			continue
		}
		for x := 0; x < src.W; x++ {
			dx := p.X + x
			if dx < 0 || dx >= m.W {
				continue
			}
			si := src.offset(x, y)
			c := RGB{src.Pix[si], src.Pix[si+1], src.Pix[si+2]}
			if c == key {
				continue
			}
			di := m.offset(dx, dy)
			m.Pix[di], m.Pix[di+1], m.Pix[di+2] = c.R, c.G, c.B
		}
	}
}

func TestBlitEquiv(t *testing.T) {
	src := lcgImage(13, 9, 5)
	key := RGB{src.Pix[0], src.Pix[1], src.Pix[2]} // guaranteed present
	for _, p := range []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 3}, {X: -4, Y: -2}, {X: 28, Y: 20}, {X: -20, Y: 40}} {
		got, want := lcgImage(32, 24, 9), lcgImage(32, 24, 9)
		got.Blit(src, p)
		blitRef(want, src, p)
		wantSamePix(t, got, want, "Blit")

		got, want = lcgImage(32, 24, 11), lcgImage(32, 24, 11)
		got.BlitMasked(src, p, key)
		blitMaskedRef(want, src, p, key)
		wantSamePix(t, got, want, "BlitMasked")
	}
}

func TestDiffMeasuresEquiv(t *testing.T) {
	m := lcgImage(21, 17, 1)
	n := lcgImage(21, 17, 2)
	// DiffCount reference: strided triple compare.
	count := 0
	for i := 0; i < len(m.Pix); i += 3 {
		if m.Pix[i] != n.Pix[i] || m.Pix[i+1] != n.Pix[i+1] || m.Pix[i+2] != n.Pix[i+2] {
			count++
		}
	}
	if got := m.DiffCount(n); got != count {
		t.Fatalf("DiffCount: got %d want %d", got, count)
	}
	// MeanAbsDiff reference.
	var sum int64
	for i := range m.Pix {
		d := int64(m.Pix[i]) - int64(n.Pix[i])
		if d < 0 {
			d = -d
		}
		sum += d
	}
	want := float64(sum) / float64(len(m.Pix))
	if got := m.MeanAbsDiff(n); got != want {
		t.Fatalf("MeanAbsDiff: got %v want %v", got, want)
	}
	if !m.Equal(m.Clone()) || m.Equal(n) {
		t.Fatal("Equal disagrees with itself")
	}
}

func TestFillShadeNoiseGradientEquiv(t *testing.T) {
	r := geom.R(3, 2, 17, 13)
	c := RGB{R: 9, G: 18, B: 27}

	got, want := lcgImage(20, 15, 3), lcgImage(20, 15, 3)
	got.Fill(r, c)
	rc := r.Clip(want.Bounds())
	for y := rc.Min.Y; y < rc.Max.Y; y++ {
		i := want.offset(rc.Min.X, y)
		for x := rc.Min.X; x < rc.Max.X; x++ {
			want.Pix[i], want.Pix[i+1], want.Pix[i+2] = c.R, c.G, c.B
			i += 3
		}
	}
	wantSamePix(t, got, want, "Fill")

	got, want = lcgImage(20, 15, 5), lcgImage(20, 15, 5)
	got.AddNoise(12, 99)
	for y := 0; y < want.H; y++ {
		for x := 0; x < want.W; x++ {
			h := hash3(uint64(x), uint64(y), 99)
			i := want.offset(x, y)
			for ch := 0; ch < 3; ch++ {
				nz := int(h>>(ch*8)&0xff)%(2*12+1) - 12
				v := int(want.Pix[i+ch]) + nz
				want.Pix[i+ch] = uint8(geom.Clamp(v, 0, 255))
			}
		}
	}
	wantSamePix(t, got, want, "AddNoise")

	a, b := RGB{R: 250, G: 20, B: 0}, RGB{R: 10, G: 220, B: 130}
	got, want = New(20, 15), New(20, 15)
	got.VerticalGradient(a, b)
	for y := 0; y < want.H; y++ {
		tt := 0.0
		if want.H > 1 {
			tt = float64(y) / float64(want.H-1)
		}
		cc := RGB{R: lerp8(a.R, b.R, tt), G: lerp8(a.G, b.G, tt), B: lerp8(a.B, b.B, tt)}
		i := want.offset(0, y)
		for x := 0; x < want.W; x++ {
			want.Pix[i], want.Pix[i+1], want.Pix[i+2] = cc.R, cc.G, cc.B
			i += 3
		}
	}
	wantSamePix(t, got, want, "VerticalGradient")
}

func TestSSDEquiv(t *testing.T) {
	m := lcgImage(24, 18, 6)
	n := lcgImage(24, 18, 7)
	rm := geom.RectAt(2, 3, 9, 7)
	rn := geom.RectAt(11, 6, 9, 7)
	skip := func(x, y int) bool { return (x+y)%3 == 0 }
	for _, sk := range []func(x, y int) bool{nil, skip} {
		var want float64
		for y := 0; y < rm.Dy(); y++ {
			mi := m.offset(rm.Min.X, rm.Min.Y+y)
			ni := n.offset(rn.Min.X, rn.Min.Y+y)
			for x := 0; x < rm.Dx(); x++ {
				if sk == nil || !sk(x, y) {
					for c := 0; c < 3; c++ {
						d := float64(m.Pix[mi+c]) - float64(n.Pix[ni+c])
						want += d * d
					}
				}
				mi += 3
				ni += 3
			}
		}
		if got := SSD(m, rm, n, rn, sk); got != want {
			t.Fatalf("SSD: got %v want %v", got, want)
		}
	}
}

func TestPlaneEquiv(t *testing.T) {
	m := lcgImage(23, 14, 8)
	n := lcgImage(23, 14, 9)

	want := make([]float64, m.W*m.H)
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			want[y*m.W+x] = float64(m.At(x, y).Gray())
		}
	}
	wantSamePlane(t, m.GrayPlane(), want, "GrayPlane")

	gray := m.GrayPlane()
	wantGx := make([]float64, m.W*m.H)
	wantGy := make([]float64, m.W*m.H)
	at := func(x, y int) float64 {
		x = geom.Clamp(x, 0, m.W-1)
		y = geom.Clamp(y, 0, m.H-1)
		return gray[y*m.W+x]
	}
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			i := y*m.W + x
			wantGx[i] = at(x+1, y) - at(x-1, y)
			wantGy[i] = at(x, y+1) - at(x, y-1)
		}
	}
	gx, gy := m.Gradients()
	wantSamePlane(t, gx, wantGx, "Gradients gx")
	wantSamePlane(t, gy, wantGy, "Gradients gy")

	// Single-column and single-row images exercise the peeled edges.
	for _, d := range []struct{ w, h int }{{1, 6}, {6, 1}, {1, 1}, {2, 2}} {
		e := lcgImage(d.w, d.h, 17)
		egray := e.GrayPlane()
		eat := func(x, y int) float64 {
			x = geom.Clamp(x, 0, e.W-1)
			y = geom.Clamp(y, 0, e.H-1)
			return egray[y*e.W+x]
		}
		wx := make([]float64, e.W*e.H)
		wy := make([]float64, e.W*e.H)
		for y := 0; y < e.H; y++ {
			for x := 0; x < e.W; x++ {
				i := y*e.W + x
				wx[i] = eat(x+1, y) - eat(x-1, y)
				wy[i] = eat(x, y+1) - eat(x, y-1)
			}
		}
		egx, egy := e.Gradients()
		wantSamePlane(t, egx, wx, "Gradients edge gx")
		wantSamePlane(t, egy, wy, "Gradients edge gy")
	}

	wantCD := make([]uint8, m.W*m.H)
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			wantCD[y*m.W+x] = colorDiffRef(m.At(x, y), n.At(x, y))
		}
	}
	wantSameBytes(t, ColorDiffPlane(m, n), wantCD, "ColorDiffPlane")

	// Every (a, b) byte pair in each channel, with the other two channels
	// equal, so the pair's difference is the pixel's.
	for c := 0; c < 3; c++ {
		pm, pn := New(256, 256), New(256, 256)
		want := make([]uint8, 256*256)
		for a := 0; a < 256; a++ {
			for b := 0; b < 256; b++ {
				i := a*256 + b
				pm.Pix[i*3+c], pn.Pix[i*3+c] = uint8(a), uint8(b)
				pm.Pix[i*3+(c+1)%3], pn.Pix[i*3+(c+1)%3] = 77, 77
				want[i] = colorDiffRef(pm.At(b, a), pn.At(b, a))
			}
		}
		wantSameBytes(t, ColorDiffPlane(pm, pn), want, fmt.Sprintf("ColorDiffPlane channel %d", c))
	}
}

// colorDiffRef is ColorDiffPlane's pixel before its branch-free rewrite.
func colorDiffRef(p, q RGB) uint8 {
	d := absDiff8(p.R, q.R)
	if g := absDiff8(p.G, q.G); g > d {
		d = g
	}
	if bl := absDiff8(p.B, q.B); bl > d {
		d = bl
	}
	return d
}

func absDiff8(a, b uint8) uint8 {
	if a > b {
		return a - b
	}
	return b - a
}

func wantSameBytes(t *testing.T, got, want []uint8, name string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d != %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d]: got %d want %d", name, i, got[i], want[i])
		}
	}
}

func TestMixIntoEquiv(t *testing.T) {
	dst := []float64{0.1, 0.4, 0.5}
	src := []float64{0.3, 0.3, 0.4}
	want := make([]float64, len(dst))
	for i := range dst {
		want[i] = (1-0.25)*dst[i] + 0.25*src[i]
	}
	mixInto(dst, src, 0.25)
	wantSamePlane(t, dst, want, "mixInto")
}

// toHSVRef is ToHSV before its rewrite: math.Max/Min and math.Mod.
func toHSVRef(c RGB) HSV {
	r := float64(c.R) / 255
	g := float64(c.G) / 255
	b := float64(c.B) / 255
	maxc := math.Max(r, math.Max(g, b))
	minc := math.Min(r, math.Min(g, b))
	delta := maxc - minc
	var h float64
	switch {
	case delta <= 0:
		h = 0
	case maxc == r:
		h = 60 * math.Mod((g-b)/delta, 6)
	case maxc == g:
		h = 60 * ((b-r)/delta + 2)
	default:
		h = 60 * ((r-g)/delta + 4)
	}
	if h < 0 {
		h += 360
	}
	var s float64
	if maxc > 0 {
		s = delta / maxc
	}
	return HSV{H: h, S: s, V: maxc}
}

// TestToHSVEquiv compares every 8-bit RGB triple bit for bit.
func TestToHSVEquiv(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for r := 0; r < 256; r++ {
		for g := 0; g < 256; g++ {
			for b := 0; b < 256; b++ {
				c := RGB{uint8(r), uint8(g), uint8(b)}
				got, want := ToHSV(c), toHSVRef(c)
				if !same(got.H, want.H) || !same(got.S, want.S) || !same(got.V, want.V) {
					t.Fatalf("ToHSV(%v) = %v, want %v", c, got, want)
				}
			}
		}
	}
}

// TestHSVHistRegionEquiv compares the row-sliced histogram with the
// per-pixel At loop it replaced, over regions inside, across and outside
// the image.
func TestHSVHistRegionEquiv(t *testing.T) {
	m := lcgImage(23, 17, 8)
	for _, r := range []geom.Rect{
		m.Bounds(),
		geom.RectAt(3, 2, 9, 11),
		geom.RectAt(-4, 5, 12, 30),
		geom.RectAt(20, -3, 10, 8),
		geom.RectAt(30, 30, 4, 4),
		{},
	} {
		want := &HSVHist{H: make([]float64, 12), S: make([]float64, 4), V: make([]float64, 4)}
		c := r.Clip(m.Bounds())
		n := 0
		for y := c.Min.Y; y < c.Max.Y; y++ {
			for x := c.Min.X; x < c.Max.X; x++ {
				v := toHSVRef(m.At(x, y))
				want.H[binIndex(v.H/360, 12)]++
				want.S[binIndex(v.S, 4)]++
				want.V[binIndex(v.V, 4)]++
				n++
			}
		}
		if n > 0 {
			for _, bins := range [][]float64{want.H, want.S, want.V} {
				for i := range bins {
					bins[i] /= float64(n)
				}
			}
		}
		got := NewHSVHistRegion(m, r, 12, 4, 4)
		wantSamePlane(t, got.H, want.H, "H "+r.String())
		wantSamePlane(t, got.S, want.S, "S "+r.String())
		wantSamePlane(t, got.V, want.V, "V "+r.String())
	}
}

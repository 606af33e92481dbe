package inpaint

// Bit-identity checks for the hot-path rewrites in this package: each
// restructured function (row-sliced confidence/data terms, per-row median
// stacking under both camera models) is compared against a naive reference
// with the pre-rewrite loop shape. Arithmetic order was preserved, so
// comparisons are exact.

import (
	"math"
	"testing"

	"verro/internal/geom"
	"verro/internal/img"
	"verro/internal/motio"
	"verro/internal/obs"
	"verro/internal/vid"
)

func lcgFrame(w, h int, seed uint64) *img.Image {
	m := img.New(w, h)
	s := seed
	for i := range m.Pix {
		s = s*6364136223846793005 + 1442695040888963407
		m.Pix[i] = uint8(s >> 56)
	}
	return m
}

func patchConfidenceRef(conf []float64, work *Mask, cx, cy, half, w, h int) float64 {
	var sum float64
	n := 0
	for dy := -half; dy <= half; dy++ {
		for dx := -half; dx <= half; dx++ {
			x, y := cx+dx, cy+dy
			if x < 0 || x >= w || y < 0 || y >= h {
				continue
			}
			sum += conf[y*w+x]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func TestPatchConfidenceEquiv(t *testing.T) {
	const w, h = 17, 13
	conf := make([]float64, w*h)
	s := uint64(42)
	for i := range conf {
		s = s*6364136223846793005 + 1442695040888963407
		conf[i] = float64(s>>56) / 255
	}
	work := NewMask(w, h)
	work.SetRect(geom.RectAt(5, 4, 6, 5), true)
	for _, half := range []int{0, 1, 3, 8} {
		for cy := -1; cy <= h; cy++ {
			for cx := -1; cx <= w; cx++ {
				got := patchConfidence(conf, work, cx, cy, half, w, h)
				want := patchConfidenceRef(conf, work, cx, cy, half, w, h)
				if got != want {
					t.Fatalf("patchConfidence(%d,%d,half=%d): got %v want %v", cx, cy, half, got, want)
				}
			}
		}
	}
}

func dataTermRef(gx, gy []float64, work *Mask, x, y, w, h int) float64 {
	nX := float64(b2i(work.At(x+1, y)) - b2i(work.At(x-1, y)))
	nY := float64(b2i(work.At(x, y+1)) - b2i(work.At(x, y-1)))
	nn := math.Hypot(nX, nY)
	if nn == 0 {
		return 1e-3
	}
	nX /= nn
	nY /= nn
	var bestIx, bestIy, bestMag float64
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			qx, qy := x+dx, y+dy
			if qx < 0 || qx >= w || qy < 0 || qy >= h {
				continue
			}
			if work.At(qx, qy) {
				continue
			}
			ix, iy := -gy[qy*w+qx], gx[qy*w+qx]
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

func TestDataTermEquiv(t *testing.T) {
	const w, h = 15, 11
	f := lcgFrame(w, h, 7)
	gx, gy := f.Gradients()
	work := NewMask(w, h)
	work.SetRect(geom.RectAt(4, 3, 5, 4), true)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			got := dataTerm(gx, gy, work, x, y, w, h)
			want := dataTermRef(gx, gy, work, x, y, w, h)
			if got != want {
				t.Fatalf("dataTerm(%d,%d): got %v want %v", x, y, got, want)
			}
		}
	}
}

// strideSamples picks every step-th frame with its clip index: the
// `k % step == 0` background sampling the sanitizer's analysis pass does.
func strideSamples(frames []*img.Image, step int) ([]*img.Image, []int) {
	var samples []*img.Image
	var indices []int
	for k := 0; k < len(frames); k += step {
		samples = append(samples, frames[k])
		indices = append(indices, k)
	}
	return samples, indices
}

// staticBackgroundRef is the pre-rewrite per-pixel gather: At/Set-based
// value collection and median stacking in the same frame order.
func staticBackgroundRef(w, h int, samples []*img.Image, indices []int, tracks *motio.TrackSet) *img.Image {
	out := img.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var rs, gs, bs []uint8
			for i, f := range samples {
				if FrameMask(w, h, indices[i], tracks).At(x, y) {
					continue
				}
				c := f.At(x, y)
				rs = append(rs, c.R)
				gs = append(gs, c.G)
				bs = append(bs, c.B)
			}
			if len(rs) == 0 {
				continue // hole; references only compare no-hole setups
			}
			out.Set(x, y, img.RGB{R: img.MedianU8(rs), G: img.MedianU8(gs), B: img.MedianU8(bs)})
		}
	}
	return out
}

func TestStaticBackgroundEquiv(t *testing.T) {
	const w, h = 24, 16
	samples := make([]*img.Image, 5)
	indices := make([]int, 5)
	for i := range samples {
		samples[i] = lcgFrame(w, h, uint64(100+i))
		indices[i] = i * 2
	}
	// A track that covers a region in some frames but never all of them,
	// so the median path is exercised without triggering inpainting.
	tr := motio.NewTrack(1, "pedestrian")
	tr.Set(0, geom.RectAt(2, 2, 6, 5))
	tr.Set(2, geom.RectAt(10, 4, 6, 5))
	tracks := motio.NewTrackSet()
	tracks.Add(tr)

	got, err := StaticBackgroundSamples(w, h, samples, indices, tracks, DefaultConfig(), obs.Runtime{})
	if err != nil {
		t.Fatalf("StaticBackgroundSamples: %v", err)
	}
	want := staticBackgroundRef(w, h, samples, indices, tracks)
	if !got.Equal(want) {
		t.Fatalf("static background differs from reference (%d pixels)", got.DiffCount(want))
	}
}

// columnProfileRef is ColumnProfile before its rewrite: each column's
// mean luma read through Image.At.
func columnProfileRef(f *img.Image) []float64 {
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

// TestColumnProfileEquiv compares the row-sliced column profile with the
// per-pixel At loop bit for bit, single-row and single-column frames
// included.
func TestColumnProfileEquiv(t *testing.T) {
	for _, d := range []struct{ w, h int }{{23, 17}, {160, 120}, {1, 9}, {9, 1}, {1, 1}} {
		f := lcgFrame(d.w, d.h, uint64(d.w*d.h))
		got, want := ColumnProfile(f), columnProfileRef(f)
		if len(got) != len(want) {
			t.Fatalf("%dx%d: %d columns, want %d", d.w, d.h, len(got), len(want))
		}
		for x := range want {
			if math.Float64bits(got[x]) != math.Float64bits(want[x]) {
				t.Fatalf("%dx%d: column %d = %v, want %v", d.w, d.h, x, got[x], want[x])
			}
		}
	}
}

// estimatePanRef integrates pairwise BestShift results over the column
// profiles of consecutive frames into offsets relative to frame 0 — the
// sanitizer's pan stage over one whole-clip window.
func estimatePanRef(v *vid.Video, maxShift int) []int {
	offsets := make([]int, v.Len())
	for k := 1; k < v.Len(); k++ {
		prev := ColumnProfile(v.Frame(k - 1))
		cur := ColumnProfile(v.Frame(k))
		offsets[k] = offsets[k-1] + BestShift(prev, cur, maxShift)
	}
	return offsets
}

// panClip cuts n w×h viewports out of a random texture, frame k at column
// k*step, so frame k's true pan offset is exactly k*step.
func panClip(t *testing.T, w, h, n, step int) *vid.Video {
	t.Helper()
	v := vid.New("pan-equiv", w, h, 30)
	base := lcgFrame(w+n*step, h, 55)
	for k := 0; k < n; k++ {
		f := img.New(w, h)
		f.Blit(base.SubImage(geom.RectAt(k*step, 0, w, h)), geom.Pt(0, 0))
		if err := v.Append(f); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

// TestEstimatePanEquiv checks the ColumnProfile/BestShift integration
// against the exact offsets of a clip panned by whole columns over random
// texture.
func TestEstimatePanEquiv(t *testing.T) {
	v := panClip(t, 40, 20, 6, 3)
	got := estimatePanRef(v, 8)
	for k := range got {
		if got[k] != 3*k {
			t.Fatalf("offset[%d]: got %d want %d", k, got[k], 3*k)
		}
	}
}

// movingBackgroundRef is the panorama median in the naive per-pixel shape:
// for each panorama pixel, gather the unmasked samples whose viewport
// covers it, in sample order.
func movingBackgroundRef(w, h int, offsets []int, samples []*img.Image, indices []int, tracks *motio.TrackSet) *img.Image {
	minOff, maxOff := offsets[0], offsets[0]
	for _, o := range offsets {
		minOff, maxOff = min(minOff, o), max(maxOff, o)
	}
	pano := img.New(w+maxOff-minOff, h)
	for y := 0; y < h; y++ {
		for px := 0; px < pano.W; px++ {
			var rs, gs, bs []uint8
			for i, f := range samples {
				x := px - (offsets[indices[i]] - minOff)
				if x < 0 || x >= w || FrameMask(w, h, indices[i], tracks).At(x, y) {
					continue
				}
				c := f.At(x, y)
				rs = append(rs, c.R)
				gs = append(gs, c.G)
				bs = append(bs, c.B)
			}
			if len(rs) == 0 {
				continue // hole; the reference only compares no-hole setups
			}
			pano.Set(px, y, img.RGB{R: img.MedianU8(rs), G: img.MedianU8(gs), B: img.MedianU8(bs)})
		}
	}
	return pano
}

// TestMovingBackgroundEquiv runs the shared median stack at non-zero pan
// offsets against the naive reference.
func TestMovingBackgroundEquiv(t *testing.T) {
	const w, h = 24, 16
	v := panClip(t, w, h, 8, 2)
	offsets := estimatePanRef(v, 6)
	samples, indices := strideSamples(v.Frames, 1)
	// Boxes away from the panorama's edge columns, which only one or two
	// viewports see, so every panorama pixel keeps an unmasked sample.
	tr := motio.NewTrack(1, "pedestrian")
	tr.Set(0, geom.RectAt(10, 2, 6, 5))
	tr.Set(3, geom.RectAt(6, 8, 6, 5))
	tracks := motio.NewTrackSet()
	tracks.Add(tr)

	mb, err := BuildMovingBackgroundSamples(w, h, offsets, samples, indices, tracks, DefaultConfig(), obs.Runtime{})
	if err != nil {
		t.Fatalf("BuildMovingBackgroundSamples: %v", err)
	}
	want := movingBackgroundRef(w, h, offsets, samples, indices, tracks)
	if !mb.Panorama.Equal(want) {
		t.Fatalf("panorama differs from reference (%d pixels)", mb.Panorama.DiffCount(want))
	}
}

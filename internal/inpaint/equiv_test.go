package inpaint

// Bit-identity checks for the hot-path rewrites in this package: each
// restructured function (row-sliced confidence/data terms, strided
// sampling, per-row median stacking, incremental pan integration) is
// compared against a naive reference with the pre-rewrite loop shape.
// Arithmetic order was preserved, so comparisons are exact.

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

func TestStrideEquiv(t *testing.T) {
	frames := make([]*img.Image, 11)
	for i := range frames {
		frames[i] = lcgFrame(4, 3, uint64(i))
	}
	for _, step := range []int{0, 1, 2, 3, 5, 20} {
		samples, indices := stride(frames, step)
		eff := step
		if eff < 1 {
			eff = 1
		}
		var wantIdx []int
		for k := range frames {
			if k%eff == 0 {
				wantIdx = append(wantIdx, k)
			}
		}
		if len(samples) != len(wantIdx) || len(indices) != len(wantIdx) {
			t.Fatalf("step %d: got %d samples, want %d", step, len(samples), len(wantIdx))
		}
		for i, k := range wantIdx {
			if indices[i] != k || samples[i] != frames[k] {
				t.Fatalf("step %d: sample %d is frame %d, want %d", step, i, indices[i], k)
			}
		}
	}
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
			out.Set(x, y, img.RGB{R: medianU8(rs), G: medianU8(gs), B: medianU8(bs)})
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

func estimatePanRef(v *vid.Video, maxShift int) []int {
	offsets := make([]int, v.Len())
	for k := 1; k < v.Len(); k++ {
		prev := ColumnProfile(v.Frame(k - 1))
		cur := ColumnProfile(v.Frame(k))
		offsets[k] = offsets[k-1] + BestShift(prev, cur, maxShift)
	}
	return offsets
}

func TestEstimatePanEquiv(t *testing.T) {
	const w, h = 40, 20
	v := vid.New("pan-equiv", w, h, 30)
	base := lcgFrame(w+30, h, 55)
	for k := 0; k < 6; k++ {
		f := img.New(w, h)
		f.Blit(base.SubImage(geom.RectAt(k*3, 0, w, h)), geom.Pt(0, 0))
		if err := v.Append(f); err != nil {
			t.Fatal(err)
		}
	}
	got, err := EstimatePan(v, 8)
	if err != nil {
		t.Fatalf("EstimatePan: %v", err)
	}
	want := estimatePanRef(v, 8)
	if len(got) != len(want) {
		t.Fatalf("offsets len %d != %d", len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("offset[%d]: got %d want %d", k, got[k], want[k])
		}
	}
}

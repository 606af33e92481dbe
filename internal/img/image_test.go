package img

import (
	"bytes"
	"image/png"
	"math"
	"os"
	"testing"
	"testing/quick"

	"verro/internal/geom"
)

func TestNewAndSetAt(t *testing.T) {
	m := New(4, 3)
	if m.W != 4 || m.H != 3 || len(m.Pix) != 36 {
		t.Fatalf("unexpected shape: %dx%d pix=%d", m.W, m.H, len(m.Pix))
	}
	c := RGB{10, 20, 30}
	m.Set(2, 1, c)
	if got := m.At(2, 1); got != c {
		t.Fatalf("At = %v, want %v", got, c)
	}
	// Out-of-bounds reads clamp.
	if got := m.At(-5, -5); got != m.At(0, 0) {
		t.Fatalf("negative At should clamp: %v", got)
	}
	if got := m.At(100, 100); got != m.At(3, 2) {
		t.Fatalf("overflow At should clamp: %v", got)
	}
	// Out-of-bounds writes are dropped silently.
	m.Set(-1, 0, RGB{1, 1, 1})
	m.Set(4, 0, RGB{1, 1, 1})
}

func TestNewFilledAndFill(t *testing.T) {
	c := RGB{100, 150, 200}
	m := NewFilled(5, 5, c)
	for y := 0; y < 5; y++ {
		for x := 0; x < 5; x++ {
			if m.At(x, y) != c {
				t.Fatalf("pixel (%d,%d) = %v", x, y, m.At(x, y))
			}
		}
	}
	m.Fill(geom.R(1, 1, 3, 3), RGB{0, 0, 0})
	if m.At(1, 1) != (RGB{}) || m.At(2, 2) != (RGB{}) {
		t.Fatal("Fill did not paint interior")
	}
	if m.At(3, 3) != c || m.At(0, 0) != c {
		t.Fatal("Fill painted outside its rect")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewFilled(3, 3, RGB{9, 9, 9})
	n := m.Clone()
	n.Set(0, 0, RGB{1, 2, 3})
	if m.At(0, 0) != (RGB{9, 9, 9}) {
		t.Fatal("Clone shares backing storage")
	}
	if !m.Equal(m.Clone()) {
		t.Fatal("clone should equal original")
	}
}

func TestSubImageAndBlit(t *testing.T) {
	m := New(10, 10)
	m.Fill(geom.R(2, 2, 6, 6), RGB{255, 0, 0})
	sub := m.SubImage(geom.R(2, 2, 6, 6))
	if sub.W != 4 || sub.H != 4 {
		t.Fatalf("sub dims = %dx%d", sub.W, sub.H)
	}
	if sub.At(0, 0) != (RGB{255, 0, 0}) {
		t.Fatal("sub content wrong")
	}
	dst := New(10, 10)
	dst.Blit(sub, geom.Pt(8, 8)) // partially off-canvas
	if dst.At(8, 8) != (RGB{255, 0, 0}) {
		t.Fatal("Blit did not copy in-bounds region")
	}
	if dst.At(7, 7) != (RGB{}) {
		t.Fatal("Blit wrote outside its destination")
	}
}

func TestBlitMasked(t *testing.T) {
	key := RGB{255, 0, 255}
	sprite := NewFilled(2, 2, key)
	sprite.Set(0, 0, RGB{1, 2, 3})
	dst := NewFilled(4, 4, RGB{50, 50, 50})
	dst.BlitMasked(sprite, geom.Pt(1, 1), key)
	if dst.At(1, 1) != (RGB{1, 2, 3}) {
		t.Fatal("opaque sprite pixel not copied")
	}
	if dst.At(2, 2) != (RGB{50, 50, 50}) {
		t.Fatal("masked pixel should be transparent")
	}
}

func TestDiffCountAndMeanAbsDiff(t *testing.T) {
	a := New(4, 4)
	b := New(4, 4)
	if a.DiffCount(b) != 0 || a.MeanAbsDiff(b) != 0 {
		t.Fatal("identical images should not differ")
	}
	b.Set(0, 0, RGB{255, 255, 255})
	if a.DiffCount(b) != 1 {
		t.Fatalf("DiffCount = %d, want 1", a.DiffCount(b))
	}
	want := 3.0 * 255 / float64(len(a.Pix))
	if got := a.MeanAbsDiff(b); math.Abs(got-want) > 1e-9 {
		t.Fatalf("MeanAbsDiff = %v, want %v", got, want)
	}
	if a.MeanAbsDiff(New(2, 2)) != 255 {
		t.Fatal("size mismatch should report max diff")
	}
}

func TestHSVRoundTrip(t *testing.T) {
	f := func(r, g, b uint8) bool {
		in := RGB{r, g, b}
		out := FromHSV(ToHSV(in))
		// Allow a 1-step rounding error per channel.
		return absInt(int(in.R)-int(out.R)) <= 1 &&
			absInt(int(in.G)-int(out.G)) <= 1 &&
			absInt(int(in.B)-int(out.B)) <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHSVKnownValues(t *testing.T) {
	cases := []struct {
		in   RGB
		want HSV
	}{
		{RGB{255, 0, 0}, HSV{0, 1, 1}},
		{RGB{0, 255, 0}, HSV{120, 1, 1}},
		{RGB{0, 0, 255}, HSV{240, 1, 1}},
		{RGB{255, 255, 255}, HSV{0, 0, 1}},
		{RGB{0, 0, 0}, HSV{0, 0, 0}},
	}
	for _, c := range cases {
		got := ToHSV(c.in)
		if math.Abs(got.H-c.want.H) > 1e-9 || math.Abs(got.S-c.want.S) > 1e-9 ||
			math.Abs(got.V-c.want.V) > 1e-9 {
			t.Errorf("ToHSV(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestHistNormalized(t *testing.T) {
	m := NewFilled(8, 8, RGB{255, 0, 0})
	m.Fill(geom.R(0, 0, 4, 8), RGB{0, 0, 255})
	h := NewHSVHist(m, 16, 8, 8)
	for _, plane := range [][]float64{h.H, h.S, h.V} {
		var sum float64
		for _, v := range plane {
			if v < 0 {
				t.Fatal("negative bin")
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("histogram not normalized: sum=%v", sum)
		}
	}
}

func TestHistSimilaritySelf(t *testing.T) {
	m := NewFilled(8, 8, RGB{10, 200, 30})
	m.AddNoise(20, 7)
	h := NewHSVHist(m, 16, 8, 8)
	if got := h.Similarity(h, 0.5, 0.3, 0.2); math.Abs(got-1) > 1e-9 {
		t.Fatalf("self similarity = %v, want 1", got)
	}
	// Dissimilar images score lower.
	n := NewFilled(8, 8, RGB{200, 10, 230})
	h2 := NewHSVHist(n, 16, 8, 8)
	if got := h.Similarity(h2, 0.5, 0.3, 0.2); got >= 1 {
		t.Fatalf("different frames should be < 1: %v", got)
	}
}

func TestEntropyBounds(t *testing.T) {
	// A single-color image has near-zero entropy; a noisy one more.
	flat := NewFilled(16, 16, RGB{100, 100, 100})
	noisy := flat.Clone()
	noisy.AddNoise(120, 3)
	hf := NewHSVHist(flat, 16, 8, 8).Entropy(0.5, 0.3, 0.2)
	hn := NewHSVHist(noisy, 16, 8, 8).Entropy(0.5, 0.3, 0.2)
	if hf < 0 || hn < 0 {
		t.Fatal("entropy must be non-negative")
	}
	if hn <= hf {
		t.Fatalf("noisy entropy (%v) should exceed flat entropy (%v)", hn, hf)
	}
}

func TestResize(t *testing.T) {
	m := NewFilled(8, 8, RGB{100, 100, 100})
	out := m.Resize(4, 4)
	if out.W != 4 || out.H != 4 {
		t.Fatalf("resize dims %dx%d", out.W, out.H)
	}
	if out.At(2, 2) != (RGB{100, 100, 100}) {
		t.Fatalf("uniform image should stay uniform: %v", out.At(2, 2))
	}
}

func TestGradients(t *testing.T) {
	// Horizontal ramp: gx positive, gy ~ 0 in the interior.
	m := New(8, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			v := uint8(x * 30)
			m.Set(x, y, RGB{v, v, v})
		}
	}
	gx, gy := m.Gradients()
	i := 3*8 + 3
	if gx[i] <= 0 {
		t.Fatalf("gx interior = %v, want > 0", gx[i])
	}
	if gy[i] != 0 {
		t.Fatalf("gy interior = %v, want 0", gy[i])
	}
}

func TestPNGRoundTrip(t *testing.T) {
	m := New(6, 5)
	m.AddNoise(127, 99)
	var buf bytes.Buffer
	if err := m.EncodePNG(&buf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := dir + "/sub/frame.png"
	if err := m.WritePNG(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, enc := range [][]byte{buf.Bytes(), raw} {
		back, err := png.Decode(bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		if b := back.Bounds(); b.Dx() != m.W || b.Dy() != m.H {
			t.Fatalf("PNG round-trip size %v, want %dx%d", b, m.W, m.H)
		}
		for y := 0; y < m.H; y++ {
			for x := 0; x < m.W; x++ {
				r, g, bb, _ := back.At(x, y).RGBA()
				if got := (RGB{uint8(r >> 8), uint8(g >> 8), uint8(bb >> 8)}); got != m.At(x, y) {
					t.Fatalf("PNG round-trip pixel (%d,%d) = %v, want %v", x, y, got, m.At(x, y))
				}
			}
		}
	}
}

func TestDrawPrimitives(t *testing.T) {
	m := New(20, 20)
	m.DrawDisc(geom.Pt(15, 15), 2, RGB{0, 255, 0})
	if m.At(15, 15) != (RGB{0, 255, 0}) || m.At(17, 15) != (RGB{0, 255, 0}) {
		t.Fatal("disc center or rim missing")
	}
	if m.At(18, 15) != (RGB{}) || m.At(17, 17) != (RGB{}) {
		t.Fatal("disc painted outside its radius")
	}
}

func TestVerticalGradient(t *testing.T) {
	m := New(2, 10)
	m.VerticalGradient(RGB{0, 0, 0}, RGB{200, 100, 50})
	if m.At(0, 0) != (RGB{0, 0, 0}) {
		t.Fatalf("top = %v", m.At(0, 0))
	}
	if m.At(0, 9) != (RGB{200, 100, 50}) {
		t.Fatalf("bottom = %v", m.At(0, 9))
	}
	if m.At(0, 5).R <= m.At(0, 1).R {
		t.Fatal("gradient should increase downward")
	}
}

func TestSSD(t *testing.T) {
	a := NewFilled(4, 4, RGB{10, 10, 10})
	b := NewFilled(4, 4, RGB{12, 10, 10})
	r := geom.R(0, 0, 2, 2)
	// 4 pixels × (2² + 0 + 0)
	if got := SSD(a, r, b, r, nil); got != 16 {
		t.Fatalf("SSD = %v, want 16", got)
	}
	skip := func(x, y int) bool { return x == 0 && y == 0 }
	if got := SSD(a, r, b, r, skip); got != 12 {
		t.Fatalf("SSD with skip = %v, want 12", got)
	}
}

func TestCosineSim(t *testing.T) {
	a := []float64{1, 0, 0}
	if got := CosineSim(a, a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("self cosine = %v", got)
	}
	if got := CosineSim(a, []float64{0, 1, 0}); got != 0 {
		t.Fatalf("orthogonal cosine = %v", got)
	}
	if got := CosineSim(a, []float64{0, 0, 0}); got != 0 {
		t.Fatalf("zero-vector cosine = %v", got)
	}
}

func TestColorDiffPlane(t *testing.T) {
	a := NewFilled(3, 2, RGB{R: 10, G: 20, B: 30})
	b := NewFilled(3, 2, RGB{R: 10, G: 50, B: 35})
	plane := ColorDiffPlane(a, b)
	if len(plane) != 6 {
		t.Fatalf("len = %d", len(plane))
	}
	for i, v := range plane {
		if v != 30 { // max per-channel diff is |20-50| = 30
			t.Fatalf("pixel %d diff = %v, want 30", i, v)
		}
	}
	if d := ColorDiffPlane(a, a); d[0] != 0 {
		t.Fatal("identical images should have zero diff")
	}
}

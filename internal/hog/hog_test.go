package hog

import (
	"math"
	"testing"

	"verro/internal/geom"
	"verro/internal/img"
)

func rect(x, y, w, h int) geom.Rect { return geom.RectAt(x, y, w, h) }

func TestFeatureLen(t *testing.T) {
	c := DefaultConfig() // 4px cells, 2x2 blocks, stride 1, 9 bins
	// 16x32 window: 4x8 cells → 3x7 blocks → 3*7*4*9 = 756.
	n, err := c.FeatureLen(16, 32)
	if err != nil {
		t.Fatal(err)
	}
	if n != 756 {
		t.Fatalf("FeatureLen = %d, want 756", n)
	}
	if _, err := c.FeatureLen(4, 4); err == nil {
		t.Fatal("too-small window should fail")
	}
	bad := Config{}
	if _, err := bad.FeatureLen(16, 16); err == nil {
		t.Fatal("zero config should fail")
	}
}

func TestComputeLengthAndRange(t *testing.T) {
	m := img.New(16, 32)
	m.AddNoise(120, 5)
	c := DefaultConfig()
	feat, err := Compute(m, c)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := c.FeatureLen(16, 32)
	if len(feat) != want {
		t.Fatalf("len = %d, want %d", len(feat), want)
	}
	for i, v := range feat {
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Fatalf("feature %d = %v outside [0,1]", i, v)
		}
	}
}

func TestUniformImageGivesZeroFeatures(t *testing.T) {
	m := img.NewFilled(16, 32, img.RGB{R: 99, G: 99, B: 99})
	feat, err := Compute(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range feat {
		if v != 0 {
			t.Fatalf("uniform image should give all-zero descriptor, got %v", v)
		}
	}
}

func TestOrientationSelectivity(t *testing.T) {
	// Vertical edges (horizontal gradient) and horizontal edges must yield
	// clearly different descriptors.
	vert := img.New(16, 16)
	horiz := img.New(16, 16)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			if x%4 < 2 {
				vert.Set(x, y, img.RGB{R: 255, G: 255, B: 255})
			}
			if y%4 < 2 {
				horiz.Set(x, y, img.RGB{R: 255, G: 255, B: 255})
			}
		}
	}
	c := DefaultConfig()
	fv, err := Compute(vert, c)
	if err != nil {
		t.Fatal(err)
	}
	fh, err := Compute(horiz, c)
	if err != nil {
		t.Fatal(err)
	}
	var dist float64
	for i := range fv {
		d := fv[i] - fh[i]
		dist += d * d
	}
	if math.Sqrt(dist) < 0.5 {
		t.Fatalf("descriptors too similar for orthogonal patterns: %v", math.Sqrt(dist))
	}
}

func TestDescriptorStableUnderSmallNoise(t *testing.T) {
	base := img.New(16, 32)
	base.VerticalGradient(img.RGB{R: 0, G: 0, B: 0}, img.RGB{R: 255, G: 255, B: 255})
	noisy := base.Clone()
	noisy.AddNoise(3, 9)
	c := DefaultConfig()
	f1, err := Compute(base, c)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Compute(noisy, c)
	if err != nil {
		t.Fatal(err)
	}
	if got := img.CosineSim(f1, f2); got < 0.8 {
		t.Fatalf("descriptor unstable: cosine %v", got)
	}
}

func TestDescriptorInvariantToBrightnessShift(t *testing.T) {
	// HOG is built on gradients: adding a constant to every pixel must not
	// change the descriptor (up to clipping at 0/255).
	base := img.New(16, 32)
	base.VerticalGradient(img.RGB{R: 40, G: 40, B: 40}, img.RGB{R: 180, G: 180, B: 180})
	shifted := base.Clone()
	for i := range shifted.Pix {
		if int(shifted.Pix[i])+30 <= 255 {
			shifted.Pix[i] += 30
		}
	}
	c := DefaultConfig()
	f1, err := Compute(base, c)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Compute(shifted, c)
	if err != nil {
		t.Fatal(err)
	}
	if sim := img.CosineSim(f1, f2); sim < 0.98 {
		t.Fatalf("brightness shift changed descriptor: cosine %v", sim)
	}
}

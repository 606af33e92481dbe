package verro

// Hot-path micro-benchmarks: one benchmark per kernel family the perf
// lint sweep rewrote (BENCH_hotpath.json records before/after). Unlike
// bench_parallel_test.go these stay single-worker — they measure the
// per-element cost the bounds-check and allocation fixes target, not
// pool scheduling. Regenerate with:
//
//	VERRO_BENCH_JSON=BENCH_hotpath.json go test -bench=BenchmarkHot -benchtime=100x .

import (
	"sync"
	"testing"

	"verro/internal/blur"
	"verro/internal/geom"
	"verro/internal/hog"
	"verro/internal/img"
	"verro/internal/inpaint"
	"verro/internal/motio"
	"verro/internal/obs"
	"verro/internal/par"
	"verro/internal/scene"
	"verro/internal/vid"
)

// hotScene caches one deterministic synthetic clip for the frame-level
// benchmarks so generation cost stays out of the timed region.
var (
	hotOnce   sync.Once
	hotVideo  *vid.Video
	hotTracks *motio.TrackSet
	hotErr    error
)

func hotClip(b *testing.B) (*vid.Video, *motio.TrackSet) {
	b.Helper()
	hotOnce.Do(func() {
		p := scene.Preset{
			Name: "hotpath", W: 160, H: 120, Frames: 12, Objects: 4,
			FPS: 30, Style: scene.StyleSquare, Class: scene.Pedestrian, Seed: 9,
		}
		g, err := scene.Generate(p)
		if err != nil {
			hotErr = err
			return
		}
		hotVideo, hotTracks = g.Video, g.Truth
	})
	if hotErr != nil {
		b.Fatal(hotErr)
	}
	return hotVideo, hotTracks
}

// singleWorker pins the pool to one worker for the duration of b.
func singleWorker(b *testing.B) {
	b.Helper()
	prev := par.SetWorkers(1)
	b.Cleanup(func() { par.SetWorkers(prev) })
}

// BenchmarkHotSSD measures patch comparison (criminisi's inner loop).
func BenchmarkHotSSD(b *testing.B) {
	recordBench(b)
	m := img.NewFilled(256, 256, img.RGB{R: 40, G: 80, B: 120})
	m.AddNoise(30, 7)
	n := m.Clone()
	n.AddNoise(10, 11)
	r := geom.RectAt(16, 16, 192, 192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if img.SSD(m, r, n, r, nil) < 0 {
			b.Fatal("negative SSD")
		}
	}
}

// BenchmarkHotGradients measures the Sobel-style gradient planes feeding
// both HOG and the inpainting data term.
func BenchmarkHotGradients(b *testing.B) {
	recordBench(b)
	m := img.NewFilled(320, 240, img.RGB{R: 90, G: 90, B: 90})
	m.AddNoise(40, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gx, gy := m.Gradients()
		if len(gx) != len(gy) {
			b.Fatal("plane mismatch")
		}
	}
}

// BenchmarkHotHOG measures descriptor computation over a detection window.
func BenchmarkHotHOG(b *testing.B) {
	recordBench(b)
	m := img.NewFilled(64, 128, img.RGB{R: 120, G: 60, B: 60})
	m.AddNoise(35, 5)
	cfg := hog.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		desc, err := hog.Compute(m, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(desc) == 0 {
			b.Fatal("empty descriptor")
		}
	}
}

// BenchmarkHotHist measures HSV histogram extraction plus the two
// similarity kernels used by key-frame segmentation and re-identification.
func BenchmarkHotHist(b *testing.B) {
	recordBench(b)
	m := img.NewFilled(160, 120, img.RGB{R: 200, G: 140, B: 40})
	m.AddNoise(50, 13)
	n := m.Clone()
	n.AddNoise(20, 17)
	r := geom.RectAt(8, 8, 144, 104)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ha := img.NewHSVHistRegion(m, r, 12, 4, 4)
		hb := img.NewHSVHistRegion(n, r, 12, 4, 4)
		s := img.Intersection(ha.H, hb.H) + img.CosineSim(ha.S, hb.S)
		if s <= 0 {
			b.Fatal("degenerate similarity")
		}
	}
}

// BenchmarkHotBlur measures full-clip sanitization by blurring, whose cost
// is dominated by the boxBlur kernel.
func BenchmarkHotBlur(b *testing.B) {
	recordBench(b)
	singleWorker(b)
	v, tracks := hotClip(b)
	cfg := blur.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blur.Sanitize(v, tracks, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotInpaint measures exemplar-based inpainting of a rectangular
// hole (patch search + confidence/data terms + patch copy).
func BenchmarkHotInpaint(b *testing.B) {
	recordBench(b)
	singleWorker(b)
	m := img.NewFilled(128, 96, img.RGB{R: 60, G: 110, B: 160})
	m.AddNoise(25, 19)
	mask := inpaint.NewMask(128, 96)
	mask.SetRect(geom.RectAt(48, 32, 24, 24), true)
	cfg := inpaint.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inpaint.Inpaint(m, mask.Clone(), cfg, obs.Runtime{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotBackground measures median background extraction (the
// per-pixel sample gather + medianU8 loops).
func BenchmarkHotBackground(b *testing.B) {
	recordBench(b)
	singleWorker(b)
	v, tracks := hotClip(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inpaint.StaticBackground(v, tracks, 2, inpaint.DefaultConfig(), obs.Runtime{}); err != nil {
			b.Fatal(err)
		}
	}
}

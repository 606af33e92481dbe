package verro

// Hot-path micro-benchmarks: one benchmark per per-frame kernel family.
// Unlike bench_parallel_test.go these run pooled kernels on a one-worker
// pool — they measure the per-element cost of the kernels, not pool
// scheduling. Regenerate the committed reference with `make bench-hotpath`:
//
//	VERRO_BENCH_JSON=BENCH_hotpath.json go test -run='^$' -bench=BenchmarkHot -benchtime=50x .
//
// TestHotKernelAllocs holds the same kernels to an allocation shape, and
// TestHotPathCompilerFacts (compiler_facts_test.go) pins what the compiler
// keeps in them: bounds checks and heap sites per function.

import (
	"fmt"
	"runtime/debug"
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

// hotClips caches one deterministic synthetic clip per linear scale for the
// frame-level kernels so generation cost stays out of the timed region.
var hotClips sync.Map // int → *hotClipEntry

type hotClipEntry struct {
	once   sync.Once
	video  *vid.Video
	tracks *motio.TrackSet
	err    error
}

func hotClip(tb testing.TB, scale int) (*vid.Video, *motio.TrackSet) {
	tb.Helper()
	e, _ := hotClips.LoadOrStore(scale, &hotClipEntry{})
	c := e.(*hotClipEntry)
	c.once.Do(func() {
		p := scene.Preset{
			Name: "hotpath", W: 160 * scale, H: 120 * scale, Frames: 12, Objects: 4,
			FPS: 30, Style: scene.StyleSquare, Class: scene.Pedestrian, Seed: 9,
		}
		g, err := scene.Generate(p)
		if err != nil {
			c.err = err
			return
		}
		c.video, c.tracks = g.Video, g.Truth
	})
	if c.err != nil {
		tb.Fatal(c.err)
	}
	return c.video, c.tracks
}

// hotKernel is one BenchmarkHot* workload. setup builds its inputs at a
// linear scale (1 is the benchmark's size: scale 2 doubles width and
// height) and returns the call to time or count, which runs on rt.
type hotKernel struct {
	name  string
	setup func(tb testing.TB, scale int, rt obs.Runtime) func() error
}

var hotKernels = []hotKernel{
	// Patch comparison (criminisi's inner loop).
	{"SSD", func(tb testing.TB, s int, _ obs.Runtime) func() error {
		m := img.NewFilled(256*s, 256*s, img.RGB{R: 40, G: 80, B: 120})
		m.AddNoise(30, 7)
		n := m.Clone()
		n.AddNoise(10, 11)
		r := geom.RectAt(16*s, 16*s, 192*s, 192*s)
		return func() error {
			if img.SSD(m, r, n, r, nil) < 0 {
				return fmt.Errorf("negative SSD")
			}
			return nil
		}
	}},
	// The Sobel-style gradient planes feeding both HOG and the
	// inpainting data term.
	{"Gradients", func(tb testing.TB, s int, _ obs.Runtime) func() error {
		m := img.NewFilled(320*s, 240*s, img.RGB{R: 90, G: 90, B: 90})
		m.AddNoise(40, 3)
		return func() error {
			if gx, gy := m.Gradients(); len(gx) != len(gy) {
				return fmt.Errorf("plane mismatch")
			}
			return nil
		}
	}},
	// Descriptor computation over a detection window.
	{"HOG", func(tb testing.TB, s int, _ obs.Runtime) func() error {
		m := img.NewFilled(64*s, 128*s, img.RGB{R: 120, G: 60, B: 60})
		m.AddNoise(35, 5)
		cfg := hog.DefaultConfig()
		return func() error {
			desc, err := hog.Compute(m, cfg)
			if err == nil && len(desc) == 0 {
				err = fmt.Errorf("empty descriptor")
			}
			return err
		}
	}},
	// HSV histogram extraction plus the two similarity kernels used by
	// key-frame segmentation and re-identification.
	{"Hist", func(tb testing.TB, s int, _ obs.Runtime) func() error {
		m := img.NewFilled(160*s, 120*s, img.RGB{R: 200, G: 140, B: 40})
		m.AddNoise(50, 13)
		n := m.Clone()
		n.AddNoise(20, 17)
		r := geom.RectAt(8*s, 8*s, 144*s, 104*s)
		return func() error {
			ha := img.NewHSVHistRegion(m, r, 12, 4, 4)
			hb := img.NewHSVHistRegion(n, r, 12, 4, 4)
			if img.Intersection(ha.H, hb.H)+img.CosineSim(ha.S, hb.S) <= 0 {
				return fmt.Errorf("degenerate similarity")
			}
			return nil
		}
	}},
	// Full-clip sanitization by blurring, whose cost is dominated by the
	// boxBlur kernel.
	{"Blur", func(tb testing.TB, s int, _ obs.Runtime) func() error {
		v, tracks := hotClip(tb, s)
		cfg := blur.DefaultConfig()
		return func() error {
			_, err := blur.Sanitize(v, tracks, cfg)
			return err
		}
	}},
	// Exemplar-based inpainting of a rectangular hole (patch search +
	// confidence/data terms + patch copy). The hole keeps its size at
	// every scale, so the patch count stays comparable.
	{"Inpaint", func(tb testing.TB, s int, rt obs.Runtime) func() error {
		m := img.NewFilled(128*s, 96*s, img.RGB{R: 60, G: 110, B: 160})
		m.AddNoise(25, 19)
		mask := inpaint.NewMask(128*s, 96*s)
		mask.SetRect(geom.RectAt(48*s, 32*s, 24, 24), true)
		cfg := inpaint.DefaultConfig()
		return func() error {
			_, err := inpaint.Inpaint(m, mask.Clone(), cfg, rt)
			return err
		}
	}},
	// Median background extraction (the per-pixel sample gather +
	// MedianU8 loops) over every second frame.
	{"Background", func(tb testing.TB, s int, rt obs.Runtime) func() error {
		v, tracks := hotClip(tb, s)
		var samples []*img.Image
		var indices []int
		for k := 0; k < v.Len(); k += 2 {
			samples = append(samples, v.Frame(k))
			indices = append(indices, k)
		}
		cfg := inpaint.DefaultConfig()
		return func() error {
			_, err := inpaint.StaticBackgroundSamples(v.W, v.H, samples, indices, tracks, cfg, rt)
			return err
		}
	}},
}

// benchHot times one kernel at the benchmark's size on a one-worker pool.
func benchHot(b *testing.B, name string) {
	recordBench(b)
	for _, k := range hotKernels {
		if k.name != name {
			continue
		}
		call := k.setup(b, 1, obs.Runtime{Pool: par.NewPool(1)})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := call(); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	b.Fatalf("no hot kernel %q", name)
}

func BenchmarkHotSSD(b *testing.B)        { benchHot(b, "SSD") }
func BenchmarkHotGradients(b *testing.B)  { benchHot(b, "Gradients") }
func BenchmarkHotHOG(b *testing.B)        { benchHot(b, "HOG") }
func BenchmarkHotHist(b *testing.B)       { benchHot(b, "Hist") }
func BenchmarkHotBlur(b *testing.B)       { benchHot(b, "Blur") }
func BenchmarkHotInpaint(b *testing.B)    { benchHot(b, "Inpaint") }
func BenchmarkHotBackground(b *testing.B) { benchHot(b, "Background") }

// hotAllocs counts one kernel's allocations per call at a scale, and the
// Criminisi patches each call fills.
func hotAllocs(t *testing.T, k hotKernel, scale int) (allocs, patches float64) {
	t.Helper()
	trace := obs.NewTrace(k.name)
	call := k.setup(t, scale, obs.Runtime{Pool: par.NewPool(1), Span: trace.Root()})
	// A collection mid-count adds the runtime's own allocations, so the
	// count runs with the collector off; the kernels are small enough.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 2
	var err error
	allocs = testing.AllocsPerRun(runs, func() {
		if e := call(); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatalf("%s at scale %d: %v", k.name, scale, err)
	}
	// AllocsPerRun makes one warm-up call before the counted ones.
	return allocs, float64(trace.Root().Counter(obs.CPatchesInpainted)) / (runs + 1)
}

// TestHotKernelAllocs pins the allocation shape of every BenchmarkHot*
// kernel: at twice the width and height a call may allocate at most
// hotAllocSlack more than at the benchmark's size, so a per-row allocation
// (which doubles the count) or a per-pixel one (which quadruples it)
// fails. The slack absorbs allocations that follow the objects in a clip
// (Blur snapshots each visible box, and more boxes stay visible at 2x).
// A kernel that fills Criminisi patches allocates per filled patch by
// design, so it is bounded per patch instead, at both sizes.
func TestHotKernelAllocs(t *testing.T) {
	const (
		hotAllocSlack     = 32
		hotAllocsPerPatch = 16
	)
	for _, k := range hotKernels {
		at1, patches1 := hotAllocs(t, k, 1)
		at2, patches2 := hotAllocs(t, k, 2)
		t.Logf("%s: %.0f allocs/call at 1x (%.0f patches), %.0f at 2x (%.0f patches)", k.name, at1, patches1, at2, patches2)
		switch {
		case patches1 > 0 || patches2 > 0:
			if at1 > hotAllocsPerPatch*patches1 || at2 > hotAllocsPerPatch*patches2 {
				t.Errorf("%s: %.0f allocs for %.0f filled patches at 1x, %.0f for %.0f at 2x; want at most %d per patch",
					k.name, at1, patches1, at2, patches2, hotAllocsPerPatch)
			}
		case at2 > at1+hotAllocSlack:
			t.Errorf("%s: %.0f allocs/call at 2x width and height vs %.0f at 1x; allocations grow with the image (want at most %d more)",
				k.name, at2, at1, hotAllocSlack)
		}
	}
}

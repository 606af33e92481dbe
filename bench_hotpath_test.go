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
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"runtime/debug"
	"sync"
	"testing"

	"verro/internal/blur"
	"verro/internal/detect"
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
	// Background subtraction, the default detector, run on every frame:
	// a noisy frame with four blobs against a background with noise of
	// its own, so a few percent of pixels pass the threshold as speckle.
	{"BGSubtract", func(tb testing.TB, s int, _ obs.Runtime) func() error {
		grey := img.RGB{R: 70, G: 100, B: 90}
		bg := img.NewFilled(160*s, 120*s, grey)
		bg.AddNoise(12, 21)
		frame := img.NewFilled(160*s, 120*s, grey)
		frame.AddNoise(16, 23)
		for k := 0; k < 4; k++ {
			frame.Fill(geom.RectAt((8+38*k)*s, (12+22*k)*s, 14*s, 28*s),
				img.RGB{R: uint8(160 + 25*k), G: 50, B: 40})
		}
		det := detect.NewBGSubtractor(bg)
		return func() error {
			ds, err := det.Detect(frame)
			if err == nil && len(ds) != 4 {
				err = fmt.Errorf("detected %d blobs, want 4", len(ds))
			}
			return err
		}
	}},
	// The .vvf codec's two directions over the hot clip: inflate plus the
	// delta sum, read through the windowed Reader from memory as
	// vid.FileSource reads a file, and the delta plus deflate of the
	// windowed Writer.
	{"Decode", decodeKernel(hotVideo)},
	{"Encode", encodeKernel(hotVideo)},
	// The same over a panning clip, whose frames after the first the
	// Writer codes as shifted deltas where the camera moved: the shift
	// search and both directions of the shifted delta.
	{"DecodeMoving", decodeKernel(hotPanClip)},
	{"EncodeMoving", encodeKernel(hotPanClip)},
}

// hotVideo is the hot clip at a scale.
func hotVideo(tb testing.TB, scale int) *vid.Video {
	v, _ := hotClip(tb, scale)
	return v
}

// hotPanClip is a moving camera's clip at a linear scale: 12 frames of
// the hot clip's size cut from one wider generated frame at column
// offsets that step by 0 or 1, as the sanitizer draws a pan over its
// panorama.
func hotPanClip(tb testing.TB, scale int) *vid.Video {
	w, h := 160*scale, 120*scale
	pano := scene.PanoramaForPan(scene.StyleStreet, w, h, 8, 9)
	v := vid.New("hotpan", w, h, 30)
	v.Moving = true
	for k := 0; k < 12; k++ {
		if err := v.Append(scene.ViewportAt(pano, w, h, 2*k/3)); err != nil {
			tb.Fatal(err)
		}
	}
	return v
}

// decodeKernel reads a clip's .vvf bytes through the windowed Reader.
func decodeKernel(clip func(testing.TB, int) *vid.Video) func(testing.TB, int, obs.Runtime) func() error {
	return func(tb testing.TB, s int, _ obs.Runtime) func() error {
		v := clip(tb, s)
		enc := encodeVVF(tb, v)
		return func() error {
			r, err := vid.NewReader(bytes.NewReader(enc))
			if err != nil {
				return err
			}
			frames, _, err := r.Next(0)
			if err == nil && len(frames) != v.Len() {
				err = fmt.Errorf("decoded %d frames, want %d", len(frames), v.Len())
			}
			return err
		}
	}
}

// encodeKernel encodes a clip through the windowed Writer.
func encodeKernel(clip func(testing.TB, int) *vid.Video) func(testing.TB, int, obs.Runtime) func() error {
	return func(tb testing.TB, s int, _ obs.Runtime) func() error {
		v := clip(tb, s)
		return func() error {
			_, err := vid.Encode(io.Discard, v)
			return err
		}
	}
}

// decodeClips names the clip each Decode kernel inflates.
var decodeClips = map[string]func(testing.TB, int) *vid.Video{
	"Decode":       hotVideo,
	"DecodeMoving": hotPanClip,
}

// encodeVVF returns a clip's .vvf bytes.
func encodeVVF(tb testing.TB, v *vid.Video) []byte {
	tb.Helper()
	var enc bytes.Buffer
	if _, err := vid.Encode(&enc, v); err != nil {
		tb.Fatal(err)
	}
	return enc.Bytes()
}

// inflateAllocs counts the allocations of a plain gzip inflate of a
// clip's .vvf member: the floor under a Decode kernel.
func inflateAllocs(t *testing.T, v *vid.Video) float64 {
	t.Helper()
	enc := encodeVVF(t, v)
	// The member follows the header: magic, W, H and frame count (uint32),
	// FPS (float64 bits), the moving flag and the name length (uint16),
	// then the name.
	off := len("VVF1") + 3*4 + 8 + 1 + 2 + len(v.Name)
	member := enc[off:]
	if !bytes.HasPrefix(member, []byte{0x1f, 0x8b}) {
		t.Fatalf("no gzip member at byte %d of the .vvf stream", off)
	}
	var err error
	allocs := testing.AllocsPerRun(2, func() {
		zr, e := gzip.NewReader(bytes.NewReader(member))
		if e == nil {
			_, e = io.Copy(io.Discard, zr)
		}
		if e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return allocs
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

func BenchmarkHotSSD(b *testing.B)          { benchHot(b, "SSD") }
func BenchmarkHotGradients(b *testing.B)    { benchHot(b, "Gradients") }
func BenchmarkHotHOG(b *testing.B)          { benchHot(b, "HOG") }
func BenchmarkHotHist(b *testing.B)         { benchHot(b, "Hist") }
func BenchmarkHotBlur(b *testing.B)         { benchHot(b, "Blur") }
func BenchmarkHotInpaint(b *testing.B)      { benchHot(b, "Inpaint") }
func BenchmarkHotBackground(b *testing.B)   { benchHot(b, "Background") }
func BenchmarkHotBGSubtract(b *testing.B)   { benchHot(b, "BGSubtract") }
func BenchmarkHotDecode(b *testing.B)       { benchHot(b, "Decode") }
func BenchmarkHotEncode(b *testing.B)       { benchHot(b, "Encode") }
func BenchmarkHotDecodeMoving(b *testing.B) { benchHot(b, "DecodeMoving") }
func BenchmarkHotEncodeMoving(b *testing.B) { benchHot(b, "EncodeMoving") }

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
	// compress/flate allocates Huffman link tables per deflate block, so
	// a Decode kernel is held to its allocations net of a plain inflate of
	// the same member: what is left is the .vvf layer's own.
	if clip, ok := decodeClips[k.name]; ok {
		allocs -= inflateAllocs(t, clip(t, scale))
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
// design, so it is bounded per patch instead, at both sizes. The Decode
// kernels are counted net of the plain inflate under them
// (inflateAllocs).
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

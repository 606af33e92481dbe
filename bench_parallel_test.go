package verro_test

// Worker-pool benchmarks: each converted hot path measured on a scoped pool
// of one worker and of one worker per core (runtime.NumCPU), so the
// speedup on the machine's own cores (and the parallel overhead at one
// worker) is directly visible. Combined with VERRO_BENCH_JSON these produce
// BENCH_parallel.json (`make bench-json`):
//
//	VERRO_BENCH_JSON=BENCH_parallel.json go test -run='^$' -bench=BenchmarkPar -benchtime=2x -count=3 .

import (
	"runtime"
	"testing"

	"verro"
	"verro/internal/detect"
	"verro/internal/geom"
	"verro/internal/img"
	"verro/internal/inpaint"
	"verro/internal/keyframe"
	"verro/internal/obs"
	"verro/internal/par"
	"verro/internal/track"
)

// benchAtWorkers runs fn as two sub-benchmarks, on a one-worker pool and
// on a pool of runtime.NumCPU() workers, handing it the count and a
// runtime on a pool of that size. They are named workers=1 and
// workers=ncpu, so cmd/benchcmp matches the names on any host.
func benchAtWorkers(b *testing.B, fn func(b *testing.B, workers int, rt obs.Runtime)) {
	for _, c := range []struct {
		name    string
		workers int
	}{{"1", 1}, {"ncpu", runtime.NumCPU()}} {
		b.Run("workers="+c.name, func(b *testing.B) {
			verro.RecordBench(b)
			fn(b, c.workers, obs.Runtime{Pool: par.NewPool(c.workers)})
		})
	}
}

// BenchmarkParMedianBackground times the per-pixel temporal median model.
func BenchmarkParMedianBackground(b *testing.B) {
	frames := make([]*img.Image, 40)
	for i := range frames {
		f := img.New(160, 120)
		for p := range f.Pix {
			f.Pix[p] = uint8((p*13 + i*29) % 256)
		}
		frames[i] = f
	}
	benchAtWorkers(b, func(b *testing.B, _ int, rt obs.Runtime) {
		for i := 0; i < b.N; i++ {
			if _, err := detect.MedianBackground(frames, 1, rt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParHOGDetect times one sliding-window pyramid pass.
func BenchmarkParHOGDetect(b *testing.B) {
	det, err := detect.NewPedestrianDetector(verro.DefaultPipelineConfig().Style, 1)
	if err != nil {
		b.Fatal(err)
	}
	d := dataset(b, "MOT01")
	frame := d.Gen.Video.Frame(0)
	benchAtWorkers(b, func(b *testing.B, _ int, rt obs.Runtime) {
		det.RT = rt
		for i := 0; i < b.N; i++ {
			if _, err := det.Detect(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParBGDetect times the detect-and-track pass of the default
// pipeline: background subtraction and the tracker over a whole clip, with
// detection and the appearance histograms on the pool and the association
// fold serial. The median background is built outside the timed loop.
func BenchmarkParBGDetect(b *testing.B) {
	d := dataset(b, "MOT06")
	frames := d.Gen.Video.Frames
	bg, err := detect.MedianBackground(frames, detect.AutoStep(len(frames)), obs.Runtime{})
	if err != nil {
		b.Fatal(err)
	}
	det := detect.NewBGSubtractor(bg)
	benchAtWorkers(b, func(b *testing.B, _ int, rt obs.Runtime) {
		for i := 0; i < b.N; i++ {
			r := track.NewRunner(det, track.DefaultConfig(), rt)
			if err := r.Window(frames); err != nil {
				b.Fatal(err)
			}
			if _, err := r.Finish(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParInpaint times the Criminisi filler (fill-front priorities +
// SSD patch search), the most compute-dense converted loop.
func BenchmarkParInpaint(b *testing.B) {
	src := img.New(96, 72)
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			src.Set(x, y, img.RGB{
				R: uint8(40 + 3*(x%16)),
				G: uint8(90 + 5*(y%8)),
				B: uint8((x + y) % 256),
			})
		}
	}
	mask := inpaint.NewMask(96, 72)
	mask.SetRect(geom.RectAt(30, 22, 24, 16), true)
	benchAtWorkers(b, func(b *testing.B, _ int, rt obs.Runtime) {
		for i := 0; i < b.N; i++ {
			if _, err := inpaint.Inpaint(src, mask, inpaint.DefaultConfig(), rt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParKeyframe times HSV-histogram key-frame extraction.
func BenchmarkParKeyframe(b *testing.B) {
	d := dataset(b, "MOT01")
	benchAtWorkers(b, func(b *testing.B, _ int, rt obs.Runtime) {
		for i := 0; i < b.N; i++ {
			if _, err := keyframe.Extract(d.Gen.Video, keyframe.DefaultConfig(), rt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParSanitizeRender times the full in-memory sanitization — the
// streaming driver over one whole-clip window — including the Phase II
// frame rendering loop.
func BenchmarkParSanitizeRender(b *testing.B) {
	d := dataset(b, "MOT01")
	cfg := d.SanitizerConfig(0.1, 1, true)
	benchAtWorkers(b, func(b *testing.B, workers int, _ obs.Runtime) {
		cfg.Workers = workers
		for i := 0; i < b.N; i++ {
			cfg.Seed = int64(i) + 1
			if _, err := verro.Sanitize(d.Gen.Video, d.Tracks, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

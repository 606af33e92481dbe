package verro

// Worker-pool benchmarks: each converted hot path measured at workers=1 and
// workers=4 so the speedup (and the parallel overhead at 1 worker) is
// directly visible. Combined with VERRO_BENCH_JSON these produce
// BENCH_parallel.json:
//
//	VERRO_BENCH_JSON=BENCH_parallel.json go test -bench=BenchmarkPar -benchtime=2x .

import (
	"fmt"
	"testing"

	"verro/internal/detect"
	"verro/internal/geom"
	"verro/internal/img"
	"verro/internal/inpaint"
	"verro/internal/keyframe"
	"verro/internal/obs"
	"verro/internal/par"
)

func benchAtWorkers(b *testing.B, fn func(b *testing.B)) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			recordBench(b)
			prev := par.SetWorkers(workers)
			defer par.SetWorkers(prev)
			fn(b)
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
	benchAtWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := detect.MedianBackground(frames, 1, obs.Runtime{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParHOGDetect times one sliding-window pyramid pass.
func BenchmarkParHOGDetect(b *testing.B) {
	det, err := detect.NewPedestrianDetector(DefaultPipelineConfig().Style, 1)
	if err != nil {
		b.Fatal(err)
	}
	d := dataset(b, "MOT01")
	frame := d.Gen.Video.Frame(0)
	benchAtWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := det.Detect(frame); err != nil {
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
	benchAtWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := inpaint.Inpaint(src, mask, inpaint.DefaultConfig(), obs.Runtime{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParKeyframe times HSV-histogram key-frame extraction.
func BenchmarkParKeyframe(b *testing.B) {
	d := dataset(b, "MOT01")
	benchAtWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := keyframe.Extract(d.Gen.Video, keyframe.DefaultConfig(), obs.Runtime{}); err != nil {
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
	benchAtWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg.Seed = int64(i) + 1
			if _, err := Sanitize(d.Gen.Video, d.Tracks, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

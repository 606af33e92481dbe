package verro

// The parallel-equivalence suite is the proof obligation of the worker-pool
// layer (internal/par): every converted hot path must produce bit-identical
// output whether it runs on one worker or many, because the experiment
// harness (EXPERIMENTS.md) depends on seeded reproducibility. The tests
// here run the same seeded pipelines at workers=1 and workers=8 and compare
// every artifact byte for byte: recovered tracks, presence vectors,
// synthetic tracks, raw frames, and the encoded .vvf stream. A product run
// sizes its pool by GOMAXPROCS, so the pipeline tests set GOMAXPROCS to the
// worker count; the kernel tests pass a pool of that size.

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"verro/internal/detect"
	"verro/internal/geom"
	"verro/internal/img"
	"verro/internal/inpaint"
	"verro/internal/obs"
	"verro/internal/par"
	"verro/internal/vid"
)

// equivScale shrinks the benchmark presets so the double runs stay
// CI-friendly while still exercising every pipeline stage (detection,
// tracking, key frames, background median, inpainting, rendering).
const equivScale = 0.25

type pipelineArtifacts struct {
	tracks    *TrackSet
	presence  [][]bool
	synTracks *TrackSet
	synFrames []*img.Image
	encoded   []byte
}

// compareArtifacts requires two runs of the seeded pipeline (here: workers=1
// vs 8; in stream_equiv_test.go: whole clip vs a window × worker count) to
// publish identical artifacts.
func compareArtifacts(t *testing.T, serial, parallel pipelineArtifacts) {
	t.Helper()
	if !reflect.DeepEqual(serial.tracks, parallel.tracks) {
		t.Error("recovered tracks differ")
	}
	if !reflect.DeepEqual(serial.presence, parallel.presence) {
		t.Error("randomized presence vectors differ")
	}
	if !reflect.DeepEqual(serial.synTracks, parallel.synTracks) {
		t.Error("synthetic tracks differ")
	}
	if len(serial.synFrames) != len(parallel.synFrames) {
		t.Fatalf("synthetic frame counts differ: %d vs %d",
			len(serial.synFrames), len(parallel.synFrames))
	}
	for k := range serial.synFrames {
		if !bytes.Equal(serial.synFrames[k].Pix, parallel.synFrames[k].Pix) {
			t.Fatalf("synthetic frame %d differs", k)
		}
	}
	if !bytes.Equal(serial.encoded, parallel.encoded) {
		t.Error("encoded .vvf streams differ")
	}
}

// TestParallelEquivalence proves the worker pool is scheduling-only: the
// full detect→track→sanitize pipeline at workers=1 and workers=8 produces
// byte-identical artifacts on all three benchmark presets.
func TestParallelEquivalence(t *testing.T) {
	for _, name := range []string{"MOT01", "MOT03", "MOT06"} {
		t.Run(name, func(t *testing.T) {
			serial, _ := runPipelineWith(t, name, 0, 1, nil)
			parallel, _ := runPipelineWith(t, name, 0, 8, nil)
			compareArtifacts(t, serial, parallel)
		})
	}
}

// runPipelineWith executes detect→track→sanitize (seed 7) for a preset at
// equivScale and captures every published artifact plus the Result.
// Detection, tracking and the sanitizer all run in windows of window frames
// (0 = one whole-clip window) at GOMAXPROCS workers, restored on return,
// with an optional trace attached.
func runPipelineWith(t *testing.T, name string, window, workers int, trace *Trace) (pipelineArtifacts, *Result) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	preset, err := BenchmarkPreset(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := GenerateBenchmark(preset.Scaled(equivScale))
	if err != nil {
		t.Fatal(err)
	}
	pcfg := DefaultPipelineConfig()
	pcfg.Trace = trace
	pcfg.WindowFrames = window
	tracks, err := DetectAndTrack(g.Video, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.Trace = trace
	cfg.WindowFrames = window
	res, err := Sanitize(g.Video, tracks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var presence [][]bool
	for _, v := range res.Phase1.Output {
		presence = append(presence, []bool(v))
	}
	var buf bytes.Buffer
	if _, err := vid.Encode(&buf, res.Synthetic); err != nil {
		t.Fatal(err)
	}
	return pipelineArtifacts{
		tracks:    tracks,
		presence:  presence,
		synTracks: res.SyntheticTracks,
		synFrames: res.Synthetic.Frames,
		encoded:   buf.Bytes(),
	}, res
}

// TestTraceEquivalence proves instrumentation is observational only: the
// seeded pipeline produces byte-identical artifacts with tracing off and
// with tracing on, at one worker and at eight — and the traced runs really
// did collect spans.
func TestTraceEquivalence(t *testing.T) {
	off, _ := runPipelineWith(t, "MOT01", 0, 1, nil)
	for _, workers := range []int{1, 8} {
		trace := NewTrace("equiv")
		on, _ := runPipelineWith(t, "MOT01", 0, workers, trace)
		compareArtifacts(t, off, on)
		rep := trace.Report()
		if rep.Span == nil || len(rep.Span.Children) == 0 {
			t.Fatalf("workers=%d: traced run collected no spans", workers)
		}
		if rep.Pool == nil || rep.Pool.ChunksDispatched == 0 {
			t.Fatalf("workers=%d: traced run collected no pool gauges", workers)
		}
	}
}

// TestConcurrentSanitizeScopedWorkers runs Sanitize concurrently: each run
// must keep its own pool (its trace counts exactly the pool calls of a
// reference run, where a shared pool would count the other runs' calls
// too) and every output must stay bit-identical to the reference.
func TestConcurrentSanitizeScopedWorkers(t *testing.T) {
	preset, err := BenchmarkPreset("MOT01")
	if err != nil {
		t.Fatal(err)
	}
	g, err := GenerateBenchmark(preset.Scaled(0.15))
	if err != nil {
		t.Fatal(err)
	}
	tracks, err := DetectAndTrack(g.Video, DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	run := func() ([]byte, int64) {
		cfg := DefaultConfig()
		cfg.Seed = 7
		cfg.Trace = NewTrace("scoped")
		res, err := Sanitize(g.Video, tracks, cfg)
		if err != nil {
			t.Error(err)
			return nil, 0
		}
		var buf bytes.Buffer
		if _, err := vid.Encode(&buf, res.Synthetic); err != nil {
			t.Error(err)
			return nil, 0
		}
		return buf.Bytes(), cfg.Trace.Report().Pool.Calls
	}
	want, wantCalls := run()

	const runs = 4
	got := make([][]byte, runs)
	calls := make([]int64, runs)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], calls[i] = run()
		}(i)
	}
	wg.Wait()

	for i, g := range got {
		if calls[i] != wantCalls {
			t.Errorf("concurrent run %d counted %d pool calls, the reference %d", i, calls[i], wantCalls)
		}
		if !bytes.Equal(g, want) {
			t.Errorf("concurrent run %d output differs from reference", i)
		}
	}
}

// TestParallelEquivalenceHOGDetection covers the sliding-window pyramid
// path, which the background-subtraction default does not reach.
func TestParallelEquivalenceHOGDetection(t *testing.T) {
	preset, err := BenchmarkPreset("MOT01")
	if err != nil {
		t.Fatal(err)
	}
	g, err := GenerateBenchmark(preset.Scaled(0.1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPipelineConfig()
	cfg.Detector = DetectorHOGSVM
	run := func(workers int) *TrackSet {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		tr, err := DetectAndTrack(g.Video, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	if serial, parallel := run(1), run(8); !reflect.DeepEqual(serial, parallel) {
		t.Fatal("HOG+SVM tracks differ between workers=1 and workers=8")
	}
}

// TestParallelEquivalenceInpaint drives the Criminisi filler directly: the
// always-covered-pixel case in a real pipeline is rare, so the SSD-search
// and fill-front conversions get a dedicated byte-identity check.
func TestParallelEquivalenceInpaint(t *testing.T) {
	src := img.New(64, 48)
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			src.Set(x, y, img.RGB{
				R: uint8(40 + 3*(x%16)),
				G: uint8(90 + 5*(y%8)),
				B: uint8((x + y) % 256),
			})
		}
	}
	mask := inpaint.NewMask(64, 48)
	mask.SetRect(geom.RectAt(20, 15, 18, 12), true)
	run := func(workers int) *img.Image {
		out, err := inpaint.Inpaint(src, mask, inpaint.DefaultConfig(), obs.Runtime{Pool: par.NewPool(workers)})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if serial, parallel := run(1), run(8); !bytes.Equal(serial.Pix, parallel.Pix) {
		t.Fatal("inpainted images differ between workers=1 and workers=8")
	}
}

// TestParallelEquivalenceMedianBackground checks the per-pixel median model
// byte for byte at an awkward pixel count (shards don't divide evenly).
func TestParallelEquivalenceMedianBackground(t *testing.T) {
	frames := make([]*img.Image, 17)
	for i := range frames {
		f := img.New(53, 31)
		for p := range f.Pix {
			f.Pix[p] = uint8((p*7 + i*13) % 256)
		}
		frames[i] = f
	}
	run := func(workers int) *img.Image {
		out, err := detect.MedianBackground(frames, 1, obs.Runtime{Pool: par.NewPool(workers)})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if serial, parallel := run(1), run(8); !bytes.Equal(serial.Pix, parallel.Pix) {
		t.Fatal("median backgrounds differ between workers=1 and workers=8")
	}
}

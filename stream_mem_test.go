package verro

// The memory-ceiling test is the other half of the streaming pipeline's
// contract: equivalence (stream_equiv_test.go) proves windowing changes
// nothing about the output, and this file proves it changes everything about
// peak memory — live heap during a disk-to-disk streamed run must be bounded
// by the window budget plus O(1) analysis state (the ~40-frame background
// sample stack, per-frame histograms, the phase-2 plan), NOT by the clip
// length. Concretely: growing the clip 4× at a fixed window must grow the
// post-GC peak live heap by at most 1.3×.
//
// Set VERRO_STREAM_JSON to a path to emit the measured peaks as JSON
// (BENCH_stream.json in the repo is the committed record for this host).

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"verro/internal/img"
	"verro/internal/scene"
	"verro/internal/stream"
)

// heapProbe tracks the maximum post-GC live heap observed at sample points.
// Forcing a GC before reading HeapAlloc makes the reading "live bytes", not
// "bytes since last collection", so the peak is a property of what the
// pipeline retains rather than of collector scheduling.
type heapProbe struct {
	peak uint64
}

func (p *heapProbe) sample() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > p.peak {
		p.peak = ms.HeapAlloc
	}
}

// probeSource samples the heap every time the pipeline materializes a
// window, i.e. exactly at the window boundaries of every streaming pass.
type probeSource struct {
	stream.Source
	probe *heapProbe
}

func (s *probeSource) Next(max int) ([]*img.Image, int, error) {
	frames, start, err := s.Source.Next(max)
	if err == nil {
		s.probe.sample()
	}
	return frames, start, err
}

// probeSink samples the heap every time a rendered window is handed off.
type probeSink struct {
	stream.Sink
	probe *heapProbe
}

func (s *probeSink) Append(frames []*img.Image) error {
	if err := s.Sink.Append(frames); err != nil {
		return err
	}
	s.probe.sample()
	return nil
}

// memClip writes a MOT01-style clip with the given frame count to disk and
// returns its path. Nothing of the generated clip stays referenced by the
// caller, so the streamed run's heap holds only what the pipeline retains.
func memClip(t *testing.T, dir string, frames int) string {
	t.Helper()
	preset, err := BenchmarkPreset("MOT01")
	if err != nil {
		t.Fatal(err)
	}
	p := preset.Scaled(equivScale)
	p.Frames = frames
	p.Name = "memclip"
	g, err := scene.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, p.Name+".vvf")
	if _, err := WriteVideo(path, g.Video); err != nil {
		t.Fatal(err)
	}
	return path
}

// streamedPeak runs the full disk-to-disk streaming pipeline — windowed
// detect+track, then windowed sanitize — over the clip at path and returns
// the peak live heap observed at window boundaries, in bytes.
func streamedPeak(t *testing.T, path string, window int) uint64 {
	t.Helper()
	probe := &heapProbe{}
	src, err := OpenVideoSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	probed := &probeSource{Source: src, probe: probe}

	pcfg := DefaultPipelineConfig()
	pcfg.WindowFrames = window
	tracks, err := DetectAndTrackStream(probed, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(t.TempDir(), "out.vvf")
	sink, err := NewVideoSink(out, StreamOutputMeta(src.Meta()))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.WindowFrames = window
	if _, err := SanitizeStream(probed, tracks, cfg, &probeSink{Sink: sink, probe: probe}); err != nil {
		t.Fatal(err)
	}
	return probe.peak
}

// wholeClipPeak measures the live heap right after an in-memory whole-clip
// run finishes, with the input clip, the track set and the full synthetic
// clip all still live — the baseline disk-to-disk streaming exists to
// avoid.
func wholeClipPeak(t *testing.T, path string) uint64 {
	t.Helper()
	v, err := ReadVideo(path)
	if err != nil {
		t.Fatal(err)
	}
	tracks, err := DetectAndTrack(v, DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = 7
	res, err := Sanitize(v, tracks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := &heapProbe{}
	probe.sample()
	runtime.KeepAlive(v)
	runtime.KeepAlive(res)
	return probe.peak
}

// streamMemReport is the BENCH_stream.json shape.
type streamMemReport struct {
	NumCPU       int     `json:"num_cpu"`
	WindowFrames int     `json:"window_frames"`
	FramesShort  int     `json:"frames_short"`
	FramesLong   int     `json:"frames_long"`
	PeakShort    uint64  `json:"stream_peak_bytes_short"`
	PeakLong     uint64  `json:"stream_peak_bytes_long"`
	PeakRatio    float64 `json:"stream_peak_ratio"`
	WholeClip    uint64  `json:"batch_live_bytes_long"`
	Note         string  `json:"note"`
}

// TestStreamMemoryCeiling is the bounded-memory acceptance test: a 4×
// longer clip at the same window budget may grow the streamed pipeline's
// peak live heap by at most 1.3×. The residual growth that is allowed comes
// from genuinely per-frame (but tiny) state: frame histograms, presence
// vectors, the phase-2 placement plan and the track set.
func TestStreamMemoryCeiling(t *testing.T) {
	const (
		window      = 16
		framesShort = 120
		framesLong  = 4 * framesShort
	)
	dir := t.TempDir()
	short := memClip(t, dir, framesShort)
	long := memClip(t, dir, framesLong)

	peakShort := streamedPeak(t, short, window)
	peakLong := streamedPeak(t, long, window)
	ratio := float64(peakLong) / float64(peakShort)
	t.Logf("streamed peak live heap: %d frames → %.2f MiB, %d frames → %.2f MiB (ratio %.3f)",
		framesShort, float64(peakShort)/(1<<20), framesLong, float64(peakLong)/(1<<20), ratio)
	if ratio > 1.3 {
		t.Fatalf("peak live heap grew %.3f× for a 4× longer clip; streaming ceiling requires <= 1.3×", ratio)
	}

	whole := wholeClipPeak(t, long)
	t.Logf("whole-clip live heap with clip+synthetic resident: %.2f MiB", float64(whole)/(1<<20))

	if path := os.Getenv("VERRO_STREAM_JSON"); path != "" {
		report := streamMemReport{
			NumCPU:       runtime.NumCPU(),
			WindowFrames: window,
			FramesShort:  framesShort,
			FramesLong:   framesLong,
			PeakShort:    peakShort,
			PeakLong:     peakLong,
			PeakRatio:    ratio,
			WholeClip:    whole,
			Note:         "post-GC HeapAlloc sampled at window boundaries of a disk-to-disk streamed run; the batch_live figure is the live heap of an in-memory whole-clip run with input and synthetic clips resident",
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

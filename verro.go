// Package verro is a video sanitization library with a formal privacy
// guarantee: it reproduces "Publishing Video Data with Indistinguishable
// Objects" (EDBT 2020). Given a video and the tracks of its sensitive
// objects, VERRO generates a synthetic video in which every object's
// content, presence pattern and trajectory are randomized such that any two
// objects are ε-indistinguishable (an object-level analogue of local
// differential privacy), while aggregate utility — object counts, crowd
// densities, motion structure — is preserved.
//
// The typical flow is:
//
//	video := ...                        // *verro.Video (or verro.GenerateBenchmark)
//	tracks, _ := verro.DetectAndTrack(video, verro.DefaultPipelineConfig())
//	res, _ := verro.Sanitize(video, tracks, verro.DefaultConfig())
//	verro.WriteVideo("out.vvf", res.Synthetic)
//
// The privacy level is governed by the flip probability f (Config.Phase1.F)
// and the number K of key frames the optimizer allocates budget to:
// ε = K·ln((2−f)/f). To spend a fixed budget instead, set
// Config.Phase1.Eps: Phase I picks the K key frames first and randomizes
// with the f that spends exactly that ε over them, reported in
// Result.Phase1.F. Epsilon and FlipProbability convert between the two
// parameterizations by hand.
//
// A video with several object classes (say pedestrians and vehicles) is
// sanitized class by class with Config.PerClass (paper Section 5): each
// class is ε-indistinguishable within itself, Result.PerClass holds each
// class's Phase I result, and one synthetic video shows every class.
package verro

import (
	"verro/internal/core"
	"verro/internal/img"
	"verro/internal/inpaint"
	"verro/internal/interp"
	"verro/internal/keyframe"
	"verro/internal/ldp"
	"verro/internal/metrics"
	"verro/internal/motio"
	"verro/internal/obs"
	"verro/internal/scene"
	"verro/internal/stream"
	"verro/internal/vid"
)

// Core data model.
type (
	// Video is an in-memory frame sequence with metadata.
	Video = vid.Video
	// Image is an 8-bit RGB raster frame.
	Image = img.Image
	// Track is one object's per-frame bounding boxes under a stable ID.
	Track = motio.Track
	// TrackSet is the collection of sensitive objects O₁..Oₙ.
	TrackSet = motio.TrackSet
)

// Configuration and results.
type (
	// Config is the end-to-end sanitizer configuration.
	Config = core.Config
	// Result is the sanitizer output: synthetic video plus diagnostics.
	Result = core.Result
	// Phase1Config tunes dimension reduction, key-frame selection and
	// random response.
	Phase1Config = core.Phase1Config
	// Phase2Config tunes coordinate assignment and rendering.
	Phase2Config = core.Phase2Config
	// KeyframeConfig tunes the Algorithm 2 segmentation.
	KeyframeConfig = keyframe.Config
	// InpaintConfig tunes the Criminisi background filler.
	InpaintConfig = inpaint.Config
)

// Observability: a Trace collects a span per pipeline stage plus monotonic
// stage counters and worker-pool gauges. Attach one via Config.Trace or
// PipelineConfig.Trace; a nil Trace disables all instrumentation at zero
// cost, and tracing never perturbs seeded outputs.
type (
	// Trace is one run's span tree, counters and pool gauges.
	Trace = obs.Trace
	// TraceReport is the machine-readable run report a finished Trace
	// serializes to (the -trace out.json schema; see DESIGN.md).
	TraceReport = obs.Report
)

// NewTrace starts a trace whose root span carries the given name.
func NewTrace(name string) *Trace { return obs.NewTrace(name) }

// Benchmark dataset generation (the MOT16 stand-ins).
type (
	// Preset describes a synthetic benchmark video.
	Preset = scene.Preset
	// Generated bundles a benchmark video with its ground truth.
	Generated = scene.Generated
)

// NewVideo returns an empty video shell.
func NewVideo(name string, w, h int, fps float64) *Video { return vid.New(name, w, h, fps) }

// NewTrackSet returns an empty object collection.
func NewTrackSet() *TrackSet { return motio.NewTrackSet() }

// NewTrack returns an empty track for one object.
func NewTrack(id int, class string) *Track { return motio.NewTrack(id, class) }

// DefaultConfig returns the paper's default sanitizer settings (f = 0.1,
// key-frame optimization on, hybrid interpolation).
func DefaultConfig() Config { return core.DefaultConfig() }

// Sanitize runs the full VERRO pipeline over an in-memory video and its
// sensitive object tracks; the input is not modified. It is an adapter over
// SanitizeStream: the clip streams through the driver in windows of
// Config.WindowFrames frames (0 = one whole-clip window) and the rendered
// frames are collected into Result.Synthetic. The output is bit-identical
// at any window size for the same seed.
func Sanitize(v *Video, tracks *TrackSet, cfg Config) (*Result, error) {
	return core.Sanitize(v, tracks, cfg)
}

// Bounded-memory streaming pipeline. A Source delivers frames in windows of
// a caller-chosen budget and a Sink receives the sanitized frames the same
// way, so arbitrarily long clips process in O(window) memory. Open a .vvf
// file as a Source with OpenVideoSource, create the output with
// NewVideoSink, and drive the pipeline with DetectAndTrackStream +
// SanitizeStream. The in-memory entry points (DetectAndTrack, Sanitize)
// run the same drivers over a slice-backed source.
type (
	// StreamMeta is the frame-count/geometry header of a streamed video.
	StreamMeta = stream.Meta
	// StreamSource delivers a video's frames in bounded windows.
	StreamSource = stream.Source
	// StreamSink consumes sanitized frames in bounded windows.
	StreamSink = stream.Sink
	// WindowSpend is one streaming window's entry in the per-window privacy
	// ledger (Result.Windows): the picked key frames falling inside the
	// window and the ε they account for, one entry per class under
	// Config.PerClass. The ledger recomposes exactly to the run's total ε,
	// or to each class's ε.
	WindowSpend = core.WindowSpend
)

// OpenVideoSource opens a .vvf file as a bounded-memory frame source;
// frames decode window by window straight from disk. Each frame is
// inflated once: later passes read it back from an unlinked raw spill in
// TMPDIR, W·H·3 bytes a frame.
func OpenVideoSource(path string) (*vid.FileSource, error) { return vid.OpenFileSource(path) }

// NewVideoSink creates a .vvf file that is encoded window by window as
// frames arrive. The appended frames must total meta.Frames before Close.
func NewVideoSink(path string, meta StreamMeta) (*vid.FileSink, error) {
	return vid.CreateFileSink(path, meta)
}

// StreamOutputMeta derives the output sink metadata (the "-verro" name, same
// geometry and timing) from a source's metadata.
func StreamOutputMeta(in StreamMeta) StreamMeta { return core.OutputMeta(in) }

// SanitizeStream runs the VERRO pipeline over a frame source in bounded
// windows of cfg.WindowFrames frames (0 = one whole-clip window), appending
// the synthetic video to sink window by window. Output is bit-identical at
// any window size; peak memory stays O(WindowFrames) however long the
// clip. The sink is closed on success; Result.Synthetic is nil (the frames
// went to the sink) and Result.Windows carries the per-window privacy
// ledger.
func SanitizeStream(src StreamSource, tracks *TrackSet, cfg Config, sink StreamSink) (*Result, error) {
	return core.SanitizeStream(src, tracks, cfg, sink)
}

// SanitizeStreamFrom is SanitizeStream with a resumable window cursor:
// rendering resumes at startFrame (a window boundary) and only frames from
// there on reach sink; the caller owns the earlier frames, typically in a
// checkpointed staging file a killed run left behind. The rendered suffix,
// ledger, tracks and ε are bit-identical to the corresponding parts of an
// uninterrupted run — the property verrod's checkpoint/resume is built on.
func SanitizeStreamFrom(src StreamSource, tracks *TrackSet, cfg Config, sink StreamSink, startFrame int) (*Result, error) {
	return core.SanitizeStreamFrom(src, tracks, cfg, sink, startFrame)
}

// JointResult is the output of SanitizeJoint.
type JointResult = core.JointResult

// SanitizeJoint sanitizes several cameras' videos under one total ε
// budget, split across cameras, and reports the sequential-composition
// bound for objects appearing in all of them (the multi-video protection
// the paper's conclusion raises as future work).
func SanitizeJoint(videos []*Video, tracks []*TrackSet, totalEps float64, cfg Config) (*JointResult, error) {
	return core.SanitizeJoint(videos, tracks, totalEps, cfg)
}

// Epsilon returns the ε-Object Indistinguishability level achieved by flip
// probability f over k budget-allocated key frames: ε = k·ln((2−f)/f).
func Epsilon(k int, f float64) (float64, error) { return ldp.Epsilon(k, f) }

// FlipProbability inverts Epsilon: the f that spends budget eps over k key
// frames.
func FlipProbability(k int, eps float64) (float64, error) { return ldp.FlipProbability(k, eps) }

// GenerateBenchmark renders one of the synthetic benchmark presets
// (BenchmarkPresets) into a video plus exact ground-truth tracks.
func GenerateBenchmark(p Preset) (*Generated, error) { return scene.Generate(p) }

// BenchmarkPresets returns the three MOT16-style presets of the paper's
// Table 1 (MOT01, MOT03, MOT06).
func BenchmarkPresets() []Preset { return scene.Presets() }

// BenchmarkPreset looks a preset up by name ("MOT01", "MOT03", "MOT06").
func BenchmarkPreset(name string) (Preset, error) { return scene.PresetByName(name) }

// WriteVideo persists a video in the .vvf container and returns its
// compressed size in bytes.
func WriteVideo(path string, v *Video) (int64, error) { return vid.WriteFile(path, v) }

// ReadVideo loads a .vvf video.
func ReadVideo(path string) (*Video, error) { return vid.ReadFile(path) }

// EncodedSize returns the compressed .vvf size of v without writing it.
func EncodedSize(v *Video) (int64, error) { return vid.EncodedSize(v) }

// SaveTracks and LoadTracks persist object annotations as CSV.
func SaveTracks(path string, t *TrackSet) error { return t.SaveCSV(path) }

// LoadTracks reads object annotations saved by SaveTracks.
func LoadTracks(path string) (*TrackSet, error) { return motio.LoadCSV(path) }

// TrajectoryDeviation measures the normalized trajectory deviation between
// original and synthetic tracks (paper Section 6.2.2; lower is better).
func TrajectoryDeviation(original, synthetic *TrackSet) float64 {
	return metrics.TrajectoryDeviation(original, synthetic)
}

// Interpolation methods for Phase2Config.Interp.
const (
	InterpLagrange = interp.MethodLagrange
	InterpLinear   = interp.MethodLinear
	InterpNearest  = interp.MethodNearest
	InterpHybrid   = interp.MethodHybrid
)

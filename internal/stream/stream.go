// Package stream is the bounded-memory streaming substrate of the VERRO
// pipeline: a frame Source that yields consecutive bounded windows, a Stage
// interface for operators that consume those windows while carrying state
// across them, and a Sink for windowed output. The driver (Run) threads the
// windows through the stages in order, re-presenting overlap frames to
// temporally-dependent stages and flushing every stage at end-of-stream.
//
// The contract that makes streaming safe to adopt is bit-identity: a stage
// fed the clip in windows of any size must produce exactly the state it
// would have produced from the whole clip at once. Stages achieve that by
// doing only per-frame work (histograms, detection), by carrying explicit
// sequential state (the tracker's Kalman filters), or by retaining a bounded
// sample of frames (the strided background median). The equivalence suite
// at the repository root (stream_equiv_test.go) holds the whole pipeline to
// this contract, and the memory-ceiling test proves peak live heap is
// O(window), not O(clip).
//
// The package deliberately depends only on internal/img: video containers
// (internal/vid) implement Source/Sink for .vvf files, and pipeline drivers
// (internal/core, the verro root package) assemble stages.
package stream

import (
	"errors"
	"fmt"
	"io"

	"verro/internal/img"
)

// Meta describes the frame sequence a Source yields, mirroring the .vvf
// header: geometry, timing, the camera model, and the total frame count.
// Frames must be known up front — the VVF container stores it in the
// header, and the sanitizer's privacy accounting needs the full presence-
// vector length before the first window is processed.
type Meta struct {
	Name   string
	W, H   int
	FPS    float64
	Moving bool
	Frames int
}

// Window is one bounded run of consecutive frames handed to a Stage.
type Window struct {
	// Start is the absolute clip index of Frames[0].
	Start int
	// Frames holds the window's frames; at most budget+overlap of them.
	Frames []*img.Image
	// Fresh is the index in Frames of the first frame this stage has not
	// seen before: Frames[:Fresh] are overlap frames re-presented for
	// temporal context, Frames[Fresh:] are new. Fresh is 0 for stages with
	// no overlap and at the head of the stream.
	Fresh int
	// Last marks the final window of the stream.
	Last bool
}

// FreshStart returns the absolute clip index of the first new frame.
func (w Window) FreshStart() int { return w.Start + w.Fresh }

// FreshFrames returns only the not-yet-seen frames of the window.
func (w Window) FreshFrames() []*img.Image { return w.Frames[w.Fresh:] }

// Source yields a frame sequence in consecutive bounded runs. Sources are
// rewindable so multi-pass pipelines (background model, then detection)
// can re-read the clip without ever holding it in memory.
type Source interface {
	// Meta describes the sequence. It is valid before the first Next call.
	Meta() Meta
	// Next returns the next run of at most budget frames (budget <= 0
	// means "all remaining") and the absolute index of the first one.
	// It returns io.EOF when the sequence is exhausted.
	Next(budget int) (frames []*img.Image, start int, err error)
	// Reset rewinds the source to frame 0 for another pass.
	Reset() error
	// Close releases underlying resources. Close is idempotent.
	Close() error
}

// Sink consumes the output frame sequence window by window.
type Sink interface {
	// Append accepts the next consecutive run of output frames.
	Append(frames []*img.Image) error
	// Close finalizes the output. No Append may follow.
	Close() error
}

// Stage is one streaming operator: it consumes the clip's windows in order
// and carries whatever state it needs across them.
type Stage interface {
	// Name identifies the stage in errors and progress reports.
	Name() string
	// Overlap is how many already-processed trailing frames the stage
	// needs re-presented at the head of each subsequent window (temporal
	// context, e.g. frame-to-frame pan estimation). The driver satisfies
	// any overlap not exceeding the window budget of the previous windows.
	Overlap() int
	// Process consumes one window. Frames[:Fresh] are repeats.
	Process(w Window) error
	// Flush finalizes the stage after the last window (also called for an
	// empty stream, with no Process calls before it).
	Flush() error
}

// ErrNoStages is returned by Run when no stage is supplied.
var ErrNoStages = errors.New("stream: no stages")

// Run drives src through the stages in window order: each window of at most
// budget frames is handed to every stage (with that stage's overlap frames
// prepended), and every stage is flushed after the last window. budget <= 0
// processes the whole clip as a single window — what the in-memory entry
// points run by default. onWindow, when non-nil, is called
// before the stages process each raw window; the function it returns (which
// may be nil) runs after they are done — the hook the pipeline drivers use
// to open and close a per-window observability span.
func Run(src Source, budget int, onWindow func(Window) func(), stages ...Stage) error {
	if len(stages) == 0 {
		return ErrNoStages
	}
	maxOverlap := 0
	for _, s := range stages {
		if o := s.Overlap(); o > maxOverlap {
			maxOverlap = o
		}
	}

	// tail holds the last maxOverlap frames already processed.
	var tail []*img.Image
	total := src.Meta().Frames

	for {
		frames, start, err := src.Next(budget)
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("stream: source: %w", err)
		}
		if len(frames) == 0 {
			return fmt.Errorf("stream: source returned an empty window at frame %d", start)
		}
		last := start+len(frames) >= total
		raw := Window{Start: start, Frames: frames, Last: last}
		var after func()
		if onWindow != nil {
			after = onWindow(raw)
		}
		for _, s := range stages {
			w := raw
			if o := s.Overlap(); o > 0 && len(tail) > 0 {
				if o > len(tail) {
					o = len(tail)
				}
				joined := make([]*img.Image, 0, o+len(frames))
				joined = append(joined, tail[len(tail)-o:]...)
				joined = append(joined, frames...)
				w = Window{Start: start - o, Frames: joined, Fresh: o, Last: last}
			}
			if err := s.Process(w); err != nil {
				return fmt.Errorf("stream: stage %s: %w", s.Name(), err)
			}
		}
		if after != nil {
			after()
		}
		if maxOverlap > 0 {
			tail = appendTail(tail, frames, maxOverlap)
		}
	}
	for _, s := range stages {
		if err := s.Flush(); err != nil {
			return fmt.Errorf("stream: stage %s flush: %w", s.Name(), err)
		}
	}
	return nil
}

// appendTail keeps the trailing keep frames of the sequence seen so far.
func appendTail(tail, frames []*img.Image, keep int) []*img.Image {
	if len(frames) >= keep {
		out := make([]*img.Image, keep)
		copy(out, frames[len(frames)-keep:])
		return out
	}
	joined := make([]*img.Image, 0, len(tail)+len(frames))
	joined = append(joined, tail...)
	joined = append(joined, frames...)
	if len(joined) > keep {
		joined = joined[len(joined)-keep:]
	}
	return joined
}

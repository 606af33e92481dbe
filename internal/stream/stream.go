// Package stream is the bounded-memory streaming substrate of the VERRO
// pipeline: a frame Source that yields consecutive bounded windows, a Sink
// for windowed output, and Each, the one loop every pass over a source
// runs through.
//
// The contract that makes streaming safe to adopt is bit-identity: a pass
// fed the clip in windows of any size must produce exactly the state it
// would have produced from the whole clip at once. Passes achieve that by
// doing only per-frame work (histograms, detection), by carrying explicit
// sequential state across windows (the tracker's Kalman filters, the
// previous frame's column profile for pan offsets), or by retaining a
// bounded sample of frames (the strided background median). The
// equivalence suite at the repository root (stream_equiv_test.go) holds
// the whole pipeline to this contract, and the memory-ceiling test proves
// peak live heap is O(window), not O(clip).
//
// The package deliberately depends only on internal/img: video containers
// (internal/vid) implement Source/Sink for .vvf files, and pipeline drivers
// (internal/core, the verro root package) write the passes.
package stream

import (
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

// Each drains src in consecutive runs of at most budget frames (budget
// <= 0 means one whole-clip run), calling fn with each run and the absolute
// index of its first frame. io.EOF ends the loop. A source error returns
// wrapped, a run with no frames before io.EOF fails (a source that kept
// returning one would never end), and fn's error returns as is — the
// callers name their pass.
func Each(src Source, budget int, fn func(frames []*img.Image, start int) error) error {
	for {
		frames, start, err := src.Next(budget)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("stream: source: %w", err)
		}
		if len(frames) == 0 {
			return fmt.Errorf("stream: source returned an empty window at frame %d", start)
		}
		if err := fn(frames, start); err != nil {
			return err
		}
	}
}

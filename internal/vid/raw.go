package vid

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"verro/internal/img"
	"verro/internal/stream"
)

// RawStore is the crash-tolerant staging half of a resumable sanitization
// job: an append-only file of uncompressed frames (W·H·3 bytes each, no
// header, no delta coding) that — unlike the gzip-compressed .vvf stream —
// can be reopened after a crash and truncated to the last checkpointed
// frame boundary, then appended to as if the process had never died.
//
// The final artifact is produced by EncodeTo, which streams the staged
// frames through the ordinary windowed Writer: because that pass always
// reads from frame 0 in one continuous run, the resulting .vvf is
// byte-identical whether the staging file was written in one uninterrupted
// run or across any number of kill/resume cycles — the compressed stream
// never observes where the interruptions fell.
//
// A FileSource keeps its spill in the same layout (createSpill).
type RawStore struct {
	f        *os.File
	path     string
	w, h     int
	frames   int
	closed   bool
	closeErr error
}

// frameBytes is the fixed on-disk size of one staged frame.
func (s *RawStore) frameBytes() int { return s.w * s.h * 3 }

// CreateRawStore creates (or truncates) a staging file for frames of the
// given geometry.
func CreateRawStore(path string, w, h int) (*RawStore, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("vid: raw store geometry %dx%d", w, h)
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &RawStore{f: f, path: path, w: w, h: h}, nil
}

// OpenRawStore reopens an existing staging file at a checkpointed frame
// count: the file is truncated to exactly frames complete frames (dropping
// any bytes a crash left beyond the last checkpoint, including partially
// written frames) and positioned to append frame `frames` next. It fails if
// the file holds fewer complete frames than the checkpoint claims — that
// inconsistency means the checkpoint cannot be trusted and the job must
// restart from scratch.
func OpenRawStore(path string, w, h, frames int) (*RawStore, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("vid: raw store geometry %dx%d", w, h)
	}
	if frames < 0 {
		return nil, fmt.Errorf("vid: negative checkpoint %d", frames)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	s := &RawStore{f: f, path: path, w: w, h: h}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	want := int64(frames) * int64(s.frameBytes())
	if info.Size() < want {
		f.Close()
		return nil, fmt.Errorf("vid: staging file %s holds %d bytes, checkpoint %d frames needs %d",
			path, info.Size(), frames, want)
	}
	if info.Size() > want {
		if err := f.Truncate(want); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(want, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	s.frames = frames
	return s, nil
}

// Frames reports how many complete frames the store holds.
func (s *RawStore) Frames() int { return s.frames }

// ReadFrame reads stored frame i into a new image. It reads through
// ReadAt, so it does not move the offset the next Append writes at.
func (s *RawStore) ReadFrame(i int) (*img.Image, error) {
	if i < 0 || i >= s.frames {
		return nil, fmt.Errorf("vid: raw frame %d of %d", i, s.frames)
	}
	fb := s.frameBytes()
	pix := make([]uint8, fb)
	if _, err := s.f.ReadAt(pix, int64(i)*int64(fb)); err != nil {
		return nil, fmt.Errorf("vid: raw frame %d: %w", i, err)
	}
	return &img.Image{W: s.w, H: s.h, Pix: pix}, nil
}

// Path reports the staging file's location; a spill has none once it is
// unlinked.
func (s *RawStore) Path() string { return s.path }

// Append implements stream.Sink: it writes the next consecutive run of
// frames. A torn write (process killed mid-call) leaves a tail beyond the
// last checkpoint that OpenRawStore truncates away on resume.
func (s *RawStore) Append(frames []*img.Image) error {
	if s.closed {
		return fmt.Errorf("vid: append to closed raw store")
	}
	for _, fr := range frames {
		if fr.W != s.w || fr.H != s.h {
			return fmt.Errorf("vid: frame %dx%d does not match store %dx%d", fr.W, fr.H, s.w, s.h)
		}
		if _, err := s.f.Write(fr.Pix); err != nil {
			return err
		}
		s.frames++
	}
	return nil
}

// Sync flushes appended frames to stable storage. Checkpointing callers
// sync the staging file before persisting the new frame count so the
// manifest never promises frames the disk does not hold.
func (s *RawStore) Sync() error {
	if s.closed {
		return fmt.Errorf("vid: sync of closed raw store")
	}
	return s.f.Sync()
}

// Close releases the file. Idempotent: a second call returns the first
// result. The staging file stays on disk for a later OpenRawStore (or
// removal by the job owner).
func (s *RawStore) Close() error {
	if s.closed {
		return s.closeErr
	}
	s.closed = true
	s.closeErr = s.f.Close()
	return s.closeErr
}

// EncodeTo streams the staged frames through the windowed .vvf Writer into
// w, reading at most window frames at a time (window <= 0 means all at
// once), and returns the compressed byte count. meta must promise exactly
// the staged frame count. The store must be complete and open; EncodeTo
// reads through ReadFrame, so appends after it still land at the end.
func (s *RawStore) EncodeTo(out io.Writer, meta stream.Meta, window int) (int64, error) {
	if meta.W != s.w || meta.H != s.h {
		return 0, fmt.Errorf("vid: encode meta %dx%d does not match store %dx%d", meta.W, meta.H, s.w, s.h)
	}
	if meta.Frames != s.frames {
		return 0, fmt.Errorf("vid: encode meta promises %d frames, store holds %d", meta.Frames, s.frames)
	}
	w, err := NewWriter(out, meta)
	if err != nil {
		return 0, err
	}
	if window <= 0 {
		window = s.frames
	}
	for done := 0; done < s.frames; {
		n := min(window, s.frames-done)
		batch := make([]*img.Image, n)
		for i := range batch {
			if batch[i], err = s.ReadFrame(done + i); err != nil {
				return 0, err
			}
		}
		if err := w.Append(batch); err != nil {
			return 0, err
		}
		done += n
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	return w.Written(), nil
}

package vid

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"verro/internal/img"
	"verro/internal/stream"
)

// Windowed .vvf codec: Writer and Reader process a .vvf stream a bounded
// run of frames at a time, holding only the previous frame (for the delta
// coding) plus the frames of the current window. The batch Encode/Decode
// entry points in codec.go are thin wrappers over these, so the container
// format cannot drift between the batch and streaming paths: an
// incrementally written stream is byte-identical to a batch-encoded one.

// MetaOf summarizes a video's header fields as streaming metadata.
func MetaOf(v *Video) stream.Meta {
	return stream.Meta{
		Name:   v.Name,
		W:      v.W,
		H:      v.H,
		FPS:    v.FPS,
		Moving: v.Moving,
		Frames: len(v.Frames),
	}
}

// Writer encodes a .vvf stream incrementally. The frame count is part of
// the header, so meta.Frames must be known up front (the VVF container is a
// file format, not a live-feed transport); Close fails if the appended
// frame count does not match it.
type Writer struct {
	cw        *countWriter
	bw        *bufio.Writer
	zw        io.WriteCloser
	prev      []uint8
	buf       []uint8
	meta      stream.Meta
	written   int
	headerErr error
	closed    bool
	closeErr  error
}

// NewWriter writes the .vvf header for meta to w and returns a Writer
// ready to accept meta.Frames frames.
func NewWriter(w io.Writer, meta stream.Meta) (*Writer, error) {
	cw := &countWriter{w: w}
	bw := bufio.NewWriter(cw)
	if _, err := bw.WriteString(vvfMagic); err != nil {
		return nil, err
	}
	header := []any{
		uint32(meta.W), uint32(meta.H), uint32(meta.Frames),
		math.Float64bits(meta.FPS), boolByte(meta.Moving),
		uint16(len(meta.Name)),
	}
	for _, h := range header {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return nil, err
		}
	}
	if _, err := bw.WriteString(meta.Name); err != nil {
		return nil, err
	}
	zw, err := newVVFCompressor(bw)
	if err != nil {
		return nil, err
	}
	return &Writer{cw: cw, bw: bw, zw: zw, meta: meta}, nil
}

// Append encodes the next consecutive run of frames.
func (w *Writer) Append(frames []*img.Image) error {
	if w.closed {
		return fmt.Errorf("vid: append to closed writer")
	}
	if w.written+len(frames) > w.meta.Frames {
		return fmt.Errorf("vid: %d frames appended, header promises %d",
			w.written+len(frames), w.meta.Frames)
	}
	for _, f := range frames {
		if f.W != w.meta.W || f.H != w.meta.H {
			return fmt.Errorf("vid: frame %dx%d does not match video %dx%d",
				f.W, f.H, w.meta.W, w.meta.H)
		}
		kind := byte(frameRaw)
		payload := f.Pix
		if w.written > 0 {
			kind = frameDelta
			if cap(w.buf) < len(f.Pix) {
				w.buf = make([]uint8, len(f.Pix))
			}
			pix := f.Pix
			buf, prev := w.buf[:len(pix)], w.prev[:len(pix)]
			for j := range pix {
				buf[j] = pix[j] - prev[j]
			}
			w.buf = buf
			payload = buf
		}
		if _, err := w.zw.Write([]byte{kind}); err != nil {
			return err
		}
		if _, err := w.zw.Write(payload); err != nil {
			return err
		}
		// Retain the raw pixels (not the delta buffer) as the delta base;
		// this keeps exactly one frame alive between windows.
		if cap(w.prev) < len(f.Pix) {
			w.prev = make([]uint8, len(f.Pix))
		}
		w.prev = w.prev[:len(f.Pix)]
		copy(w.prev, f.Pix)
		w.written++
	}
	return nil
}

// Close finalizes the stream. It fails when fewer frames were appended
// than the header promised. Close is idempotent: a second call returns the
// first call's result instead of re-finalizing, so defer-based cleanup
// composes with an explicit success-path close.
func (w *Writer) Close() error {
	if w.closed {
		return w.closeErr
	}
	w.closed = true
	if w.written != w.meta.Frames {
		w.closeErr = fmt.Errorf("vid: closed after %d frames, header promises %d",
			w.written, w.meta.Frames)
		return w.closeErr
	}
	if err := w.zw.Close(); err != nil {
		w.closeErr = err
		return err
	}
	w.closeErr = w.bw.Flush()
	return w.closeErr
}

// Written reports the bytes emitted so far (the Table 3 "bandwidth" figure
// once Close has flushed).
func (w *Writer) Written() int64 { return w.cw.n }

// Reader decodes a .vvf stream incrementally: the header is parsed by
// NewReader and frames are surfaced in bounded runs by Next, keeping only
// the previous frame as the delta base.
type Reader struct {
	zr   io.ReadCloser
	meta stream.Meta
	pos  int
	prev []uint8
}

// NewReader parses the .vvf header from r and returns a Reader positioned
// at frame 0.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(vvfMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if string(magic) != vvfMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrFormat, magic)
	}
	var w32, h32, n32 uint32
	var fpsBits uint64
	var moving uint8
	var nameLen uint16
	for _, dst := range []any{&w32, &h32, &n32, &fpsBits, &moving, &nameLen} {
		if err := binary.Read(br, binary.LittleEndian, dst); err != nil {
			return nil, fmt.Errorf("%w: header: %v", ErrFormat, err)
		}
	}
	if w32 > maxDim || h32 > maxDim || n32 > maxFrames {
		return nil, fmt.Errorf("%w: implausible geometry %dx%d×%d", ErrFormat, w32, h32, n32)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("%w: name: %v", ErrFormat, err)
	}
	zr, err := newVVFDecompressor(br)
	if err != nil {
		return nil, fmt.Errorf("%w: gzip: %v", ErrFormat, err)
	}
	return &Reader{
		zr: zr,
		meta: stream.Meta{
			Name:   string(name),
			W:      int(w32),
			H:      int(h32),
			FPS:    math.Float64frombits(fpsBits),
			Moving: moving != 0,
			Frames: int(n32),
		},
	}, nil
}

// Meta describes the stream being decoded.
func (r *Reader) Meta() stream.Meta { return r.meta }

// Next decodes the next run of at most budget frames (budget <= 0 decodes
// all remaining) and returns them with the absolute index of the first.
// It returns io.EOF once all header-promised frames have been surfaced.
func (r *Reader) Next(budget int) ([]*img.Image, int, error) {
	if r.pos >= r.meta.Frames {
		return nil, r.pos, io.EOF
	}
	end := r.meta.Frames
	if budget > 0 && r.pos+budget < end {
		end = r.pos + budget
	}
	start := r.pos
	frameBytes := r.meta.W * r.meta.H * 3
	out := make([]*img.Image, 0, end-start)
	kind := make([]byte, 1)
	for r.pos < end {
		if _, err := io.ReadFull(r.zr, kind); err != nil {
			return nil, start, fmt.Errorf("%w: frame %d kind: %v", ErrFormat, r.pos, err)
		}
		pix := make([]uint8, frameBytes)
		if _, err := io.ReadFull(r.zr, pix); err != nil {
			return nil, start, fmt.Errorf("%w: frame %d payload: %v", ErrFormat, r.pos, err)
		}
		switch kind[0] {
		case frameRaw:
		case frameDelta:
			if r.prev == nil {
				return nil, start, fmt.Errorf("%w: delta frame %d without base", ErrFormat, r.pos)
			}
			prev := r.prev[:len(pix)]
			for j := range pix {
				pix[j] += prev[j]
			}
		default:
			return nil, start, fmt.Errorf("%w: frame %d unknown kind %d", ErrFormat, r.pos, kind[0])
		}
		out = append(out, &img.Image{W: r.meta.W, H: r.meta.H, Pix: pix})
		r.prev = pix
		r.pos++
	}
	return out, start, nil
}

// Close releases the decompressor.
func (r *Reader) Close() error { return r.zr.Close() }

// FileSource is a stream.Source backed by a .vvf file: frames are decoded
// window by window straight from disk, and Reset rewinds the file for
// multi-pass pipelines. Peak memory is O(window), never O(clip).
//
// FileSource reads one window ahead. When Next returns a window and frames
// remain, one goroutine decodes the next window with the same budget while
// the caller works on this one, so at most two windows of input are in
// memory. For any sequence of budgets Next returns exactly the frames,
// start indices and errors the synchronous Reader returns: a call with
// another budget is served from the frames decoded ahead, split or topped
// up on the caller's goroutine. Reset and Close wait for the window in
// flight and discard it before they touch the file.
type FileSource struct {
	f    *os.File
	r    *Reader
	meta stream.Meta

	// ahead delivers the window in flight, or is nil when none is. Until
	// that window is received, its goroutine owns r.
	ahead chan decodedRun
	// buf holds frames decoded ahead and not yet returned; they end at
	// r.pos. bufErr is the error that stopped the decode there.
	buf    []*img.Image
	bufErr error

	closed   bool
	closeErr error
}

// decodedRun is a window decoded ahead: its frames in order, and the error
// that stopped the decode short of the budget, if any.
type decodedRun struct {
	frames []*img.Image
	err    error
}

// OpenFileSource opens path and parses its header.
func OpenFileSource(path string) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := NewReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileSource{f: f, r: r, meta: r.Meta()}, nil
}

// Meta implements stream.Source.
func (s *FileSource) Meta() stream.Meta { return s.meta }

// Next implements stream.Source. After a window that leaves frames, it
// starts decoding the next one with the same budget.
func (s *FileSource) Next(budget int) ([]*img.Image, int, error) {
	s.join()
	frames, start, err := s.take(budget)
	if err == nil && len(s.buf) == 0 && s.bufErr == nil && s.r.pos < s.meta.Frames {
		s.readAhead(budget)
	}
	return frames, start, err
}

// take returns the next run of at most budget frames as the synchronous
// Reader would: from the frames decoded ahead, topped up from r when they
// fall short.
func (s *FileSource) take(budget int) ([]*img.Image, int, error) {
	if len(s.buf) == 0 && s.bufErr == nil {
		return s.r.Next(budget)
	}
	start := s.r.pos - len(s.buf)
	n := s.runLen(start, budget)
	if n <= len(s.buf) {
		out := s.buf[:n:n]
		s.buf = s.buf[n:]
		return out, start, nil
	}
	// The run reaches past the decoded frames: the synchronous Reader
	// would have met the stopping error in this call, or it decodes the
	// rest of the run now.
	have, err := s.buf, s.bufErr
	s.buf, s.bufErr = nil, nil
	if err != nil {
		return nil, start, err
	}
	rest, _, err := s.r.Next(n - len(have))
	if err != nil {
		return nil, start, err
	}
	return append(have, rest...), start, nil
}

// readAhead starts one goroutine that decodes the next run of at most
// budget frames and exits. It decodes frame by frame, so a later call with
// a smaller budget still gets the frames decoded before an error.
func (s *FileSource) readAhead(budget int) {
	r, ahead := s.r, make(chan decodedRun, 1)
	n := s.runLen(r.pos, budget)
	s.ahead = ahead
	go func() {
		run := decodedRun{frames: make([]*img.Image, 0, n)}
		for len(run.frames) < n {
			f, _, err := r.Next(1)
			if err != nil {
				run.err = err
				break
			}
			run.frames = append(run.frames, f[0])
		}
		ahead <- run
	}()
}

// runLen is the length of the run of at most budget frames from frame pos
// (budget <= 0 runs to the end), as Reader.Next counts it.
func (s *FileSource) runLen(pos, budget int) int {
	n := s.meta.Frames - pos
	if budget > 0 && budget < n {
		n = budget
	}
	return n
}

// join waits for the window in flight, if any, and keeps its frames.
func (s *FileSource) join() {
	if s.ahead != nil {
		run := <-s.ahead
		s.ahead = nil
		s.buf, s.bufErr = run.frames, run.err
	}
}

// discard waits for the window in flight, if any, and drops every frame
// decoded ahead.
func (s *FileSource) discard() {
	s.join()
	s.buf, s.bufErr = nil, nil
}

// Reset implements stream.Source: it rewinds the file and re-parses the
// header so the next Next call surfaces frame 0 again.
func (s *FileSource) Reset() error {
	s.discard()
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	r, err := NewReader(s.f)
	if err != nil {
		return err
	}
	s.r = r
	return nil
}

// Close implements stream.Source. It closes the file once, after the
// window in flight; a later call returns the first call's result.
func (s *FileSource) Close() error {
	if !s.closed {
		s.closed = true
		s.discard()
		s.closeErr = s.f.Close()
	}
	return s.closeErr
}

// FileSink is a stream.Sink that encodes output windows straight to a .vvf
// file as they arrive.
type FileSink struct {
	f        *os.File
	w        *Writer
	closed   bool
	closeErr error
}

// CreateFileSink creates path (and parent directories) and writes the
// header for meta; the windows appended afterwards must total meta.Frames.
func CreateFileSink(path string, meta stream.Meta) (*FileSink, error) {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w, err := NewWriter(f, meta)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileSink{f: f, w: w}, nil
}

// Append implements stream.Sink.
func (s *FileSink) Append(frames []*img.Image) error { return s.w.Append(frames) }

// Close implements stream.Sink: it finalizes the compressed stream and the
// file. The frame-count check of Writer.Close applies. Close is idempotent —
// a second call returns the first call's result rather than a double-close
// fd error — so a caller's `defer sink.Close()` cleanup composes with the
// success-path close inside core.SanitizeStream.
func (s *FileSink) Close() error {
	if s.closed {
		return s.closeErr
	}
	s.closed = true
	if err := s.w.Close(); err != nil {
		s.f.Close()
		s.closeErr = err
		return err
	}
	s.closeErr = s.f.Close()
	return s.closeErr
}

// Written reports the bytes written so far (complete after Close).
func (s *FileSink) Written() int64 { return s.w.Written() }

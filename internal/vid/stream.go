package vid

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

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
	cw       *countWriter
	bw       *bufio.Writer
	zw       *memberWriter
	prev     []uint8
	buf      []uint8
	head     [2]byte // a frame's kind byte and, for a shifted delta, its shift
	meta     stream.Meta
	written  int
	closed   bool
	closeErr error
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
	return &Writer{cw: cw, bw: bw, zw: newMemberWriter(bw), meta: meta}, nil
}

// Append encodes the next consecutive run of frames. Every frame after
// the first is a delta from its predecessor, shifted by bestShift's
// column count when the header says Moving (codec.go).
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
		kind, d, headLen := byte(frameRaw), 0, 1
		payload := f.Pix
		if w.written > 0 {
			if w.meta.Moving {
				d = bestShift(f.Pix, w.prev, f.W, f.H)
			}
			kind = frameDelta
			if d != 0 {
				kind, headLen = frameShift, 2
			}
			if cap(w.buf) < len(f.Pix) {
				w.buf = make([]uint8, len(f.Pix))
			}
			w.buf = w.buf[:len(f.Pix)]
			shiftDelta(w.buf, f.Pix, w.prev, f.W, d)
			payload = w.buf
		}
		w.head = [2]byte{kind, byte(d)}
		if _, err := w.zw.Write(w.head[:headLen]); err != nil {
			return err
		}
		if _, err := w.zw.Write(payload); err != nil {
			return err
		}
		if err := w.zw.endFrame(); err != nil {
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
// the previous frame as the delta base. Inflating a blocked body runs
// ahead of Next on up to GOMAXPROCS goroutines, one member each
// (memberReader); the kind, shift and delta of each frame are undone on
// the caller's goroutine. A Reader needs no Close.
type Reader struct {
	zr   io.Reader
	meta stream.Meta
	pos  int
	prev []uint8
	head [2]byte // the frame being read: its kind byte and its shift
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
	// A valid member holds less than memberTarget bytes before its last
	// frame, which is a kind byte, a shift and W·H·3 pixels.
	zr, err := newVVFDecompressor(br, memberTarget+2+int(w32)*int(h32)*3)
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
//
// The header alone sizes no buffer: the first frame grows its buffer as
// its bytes inflate (readGrowing), and the run's frame list starts at no
// more than runCap entries, so a short stream that promises large or
// many frames costs memory in proportion to what it holds. A later frame
// follows one that inflated in full and is allocated at once.
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
	out := make([]*img.Image, 0, min(end-start, runCap))
	for r.pos < end {
		if _, err := io.ReadFull(r.zr, r.head[:1]); err != nil {
			return nil, start, fmt.Errorf("%w: frame %d kind: %v", ErrFormat, r.pos, err)
		}
		kind, d := r.head[0], 0
		switch {
		case kind == frameRaw:
		case kind != frameDelta && kind != frameShift:
			return nil, start, fmt.Errorf("%w: frame %d unknown kind %d", ErrFormat, r.pos, kind)
		case r.pos == 0:
			return nil, start, fmt.Errorf("%w: delta frame %d without base", ErrFormat, r.pos)
		case kind == frameShift:
			if _, err := io.ReadFull(r.zr, r.head[1:]); err != nil {
				return nil, start, fmt.Errorf("%w: frame %d shift: %v", ErrFormat, r.pos, err)
			}
			if d = int(int8(r.head[1])); !validShift(d, r.meta.W) {
				return nil, start, fmt.Errorf("%w: frame %d shift %d out of range", ErrFormat, r.pos, d)
			}
		}
		var pix []uint8
		var err error
		if r.pos == 0 {
			pix, err = readGrowing(nil, r.zr, frameBytes)
		} else {
			pix = make([]uint8, frameBytes)
			_, err = io.ReadFull(r.zr, pix)
		}
		if err != nil {
			return nil, start, fmt.Errorf("%w: frame %d payload: %v", ErrFormat, r.pos, err)
		}
		if kind != frameRaw {
			unshiftDelta(pix, r.prev, r.meta.W, d)
		}
		out = append(out, &img.Image{W: r.meta.W, H: r.meta.H, Pix: pix})
		r.prev = pix
		r.pos++
	}
	return out, start, nil
}

const (
	// growChunk is the first read of a frame that has no decoded
	// predecessor (readGrowing).
	growChunk = 64 << 10
	// runCap bounds the frame list Reader.Next allocates before it has
	// decoded a frame; a longer run grows it.
	runCap = 64
)

// readGrowing appends bytes from r to buf until it holds n. Its capacity
// grows only as bytes arrive, to growChunk and then by doubling, so a
// stream that ends early costs at most growChunk or about twice what it
// held, whatever n it promised. Its errors are io.ReadFull's for the
// bytes it was asked for: io.EOF when none arrived, io.ErrUnexpectedEOF
// when some did.
func readGrowing(buf []uint8, r io.Reader, n int) ([]uint8, error) {
	from := len(buf)
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), max(len(buf), growChunk)))
		}
		k, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		if buf = buf[:len(buf)+k]; err != nil {
			if err == io.EOF && len(buf) > from {
				err = io.ErrUnexpectedEOF
			}
			return buf, err
		}
	}
	return buf, nil
}

// FileSource is a stream.Source backed by a .vvf file: frames are decoded
// window by window straight from disk, and Reset returns to frame 0 for
// multi-pass pipelines. Peak memory is O(window), never O(clip).
//
// FileSource inflates each frame at most once. It also writes every frame
// it inflates to a spill of raw pixels in the RawStore layout, and a Reset
// only moves its cursor: frames below the spill's end are read back from
// it, and frames beyond it are inflated and spilled in turn. The spill is
// created on the first inflated frame in os.TempDir and unlinked at once.
// It is dropped for good when it cannot be created or written, or when the
// stream fails to decode; from then on Reset rewinds the file.
//
// FileSource reads one window ahead. When Next returns a window and frames
// remain, one goroutine reads the next window with the same budget while
// the caller works on this one, so at most two windows of input are in
// memory. For any sequence of budgets and Resets, Next returns exactly the
// frames, start indices and errors the synchronous Reader returns: a call
// with another budget is served from the frames read ahead, split or
// topped up on the caller's goroutine. Reset and Close wait for the window
// in flight and discard it before they touch the cursor.
type FileSource struct {
	meta stream.Meta

	// in reads the frames. Until the window in flight is received, its
	// goroutine owns in.
	in *fileCursor
	// ahead delivers the window in flight, or is nil when none is.
	ahead chan decodedRun
	// buf holds frames read ahead and not yet returned; they end at
	// in.pos. bufErr is the error that stopped the read there.
	buf    []*img.Image
	bufErr error

	closed   bool
	closeErr error
}

// decodedRun is a window read ahead: its frames in order, and the error
// that stopped the read short of the budget, if any.
type decodedRun struct {
	frames []*img.Image
	err    error
}

// fileCursor reads a .vvf file frame by frame from frame pos. While the
// spill is kept, r stands at the spill's end and is never rewound.
type fileCursor struct {
	f       *os.File
	r       *Reader
	pos     int
	spill   *RawStore // nil until the first inflated frame, and once dropped
	dropped bool      // the spill is gone for good; Reset rewinds f
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
	return &FileSource{meta: r.Meta(), in: &fileCursor{f: f, r: r}}, nil
}

// Meta implements stream.Source.
func (s *FileSource) Meta() stream.Meta { return s.meta }

// Next implements stream.Source. After a window that leaves frames, it
// starts reading the next one with the same budget.
func (s *FileSource) Next(budget int) ([]*img.Image, int, error) {
	s.join()
	frames, start, err := s.take(budget)
	if err == nil && len(s.buf) == 0 && s.bufErr == nil && s.in.pos < s.meta.Frames {
		s.readAhead(budget)
	}
	return frames, start, err
}

// take returns the next run of at most budget frames as the synchronous
// Reader would: from the frames read ahead, topped up from in when they
// fall short.
func (s *FileSource) take(budget int) ([]*img.Image, int, error) {
	start := s.in.pos - len(s.buf)
	if start >= s.meta.Frames {
		return nil, start, io.EOF
	}
	n := s.runLen(start, budget)
	if n <= len(s.buf) {
		out := s.buf[:n:n]
		s.buf = s.buf[n:]
		return out, start, nil
	}
	// The run reaches past the frames read ahead: the synchronous Reader
	// would have met the stopping error in this call, or it reads the
	// rest of the run now.
	have, err := s.buf, s.bufErr
	s.buf, s.bufErr = nil, nil
	if err == nil {
		var rest []*img.Image
		rest, err = s.in.run(n - len(have))
		have = append(have, rest...)
	}
	if err != nil {
		return nil, start, err
	}
	return have, start, nil
}

// readAhead starts one goroutine that reads the next run of at most
// budget frames and exits. It reads frame by frame, so a later call with
// a smaller budget still gets the frames read before an error.
func (s *FileSource) readAhead(budget int) {
	in, ahead := s.in, make(chan decodedRun, 1)
	n := s.runLen(in.pos, budget)
	s.ahead = ahead
	go func() {
		frames, err := in.run(n)
		ahead <- decodedRun{frames: frames, err: err}
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
// read ahead.
func (s *FileSource) discard() {
	s.join()
	s.buf, s.bufErr = nil, nil
}

// Reset implements stream.Source: the next Next call surfaces frame 0
// again. While the spill is kept, Reset only moves the cursor; otherwise
// it rewinds the file and re-parses the header.
func (s *FileSource) Reset() error {
	s.discard()
	if !s.in.dropped {
		s.in.pos = 0
		return nil
	}
	return s.in.rewind(0)
}

// Close implements stream.Source. It closes the spill and the file once,
// after the window in flight; a later call returns the first call's
// result.
func (s *FileSource) Close() error {
	if !s.closed {
		s.closed = true
		s.discard()
		s.in.drop()
		s.closeErr = s.in.f.Close()
	}
	return s.closeErr
}

// run reads up to n frames from pos on and stops at the first error,
// returning the frames read before it.
func (c *fileCursor) run(n int) ([]*img.Image, error) {
	frames := make([]*img.Image, 0, n)
	for len(frames) < n {
		f, err := c.next()
		if err != nil {
			return frames, err
		}
		frames = append(frames, f)
	}
	return frames, nil
}

// next returns frame pos and advances: read back from the spill when it
// holds the frame, otherwise inflated by r and spilled.
func (c *fileCursor) next() (*img.Image, error) {
	if c.spill != nil && c.pos < c.spill.Frames() {
		if f, err := c.spill.ReadFrame(c.pos); err == nil {
			c.pos++
			return f, nil
		}
		// The spill cannot serve its frames: inflate up to pos again.
		c.drop()
		if err := c.rewind(c.pos); err != nil {
			return nil, err
		}
	}
	frames, _, err := c.r.Next(1)
	if err != nil {
		c.drop()
		return nil, err
	}
	c.pos++
	c.keep(frames[0])
	return frames[0], nil
}

// keep appends an inflated frame to the spill, which it creates on the
// first frame. Either failure drops the spill.
func (c *fileCursor) keep(f *img.Image) {
	if c.dropped {
		return
	}
	if c.spill == nil {
		spill, err := createSpill(f.W, f.H)
		if err != nil {
			c.dropped = true
			return
		}
		c.spill = spill
	}
	if err := c.spill.Append([]*img.Image{f}); err != nil {
		c.drop()
	}
}

// drop gives up the spill for good: r becomes the only reader, and Reset
// rewinds the file.
func (c *fileCursor) drop() {
	c.dropped = true
	if c.spill != nil {
		c.spill.Close()
		if path := c.spill.Path(); path != "" {
			os.Remove(path)
		}
		c.spill = nil
	}
}

// rewind re-parses the header and inflates the first skip frames again,
// so that r and pos stand at frame skip.
func (c *fileCursor) rewind(skip int) error {
	if _, err := c.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	r, err := NewReader(c.f)
	if err != nil {
		return err
	}
	c.r, c.pos = r, 0
	for c.pos < skip {
		if _, _, err := r.Next(1); err != nil {
			return err
		}
		c.pos++
	}
	return nil
}

// createSpill creates a FileSource's spill: a RawStore in os.TempDir,
// created 0600 and unlinked at once, so that only its descriptor reaches
// it. Where the unlink fails, Path names the file, and drop removes it
// after Close.
func createSpill(w, h int) (*RawStore, error) {
	f, err := os.CreateTemp("", "verro-spill-*.raw")
	if err != nil {
		return nil, err
	}
	spill := &RawStore{f: f, w: w, h: h}
	if err := os.Remove(f.Name()); err != nil {
		spill.path = f.Name()
	}
	return spill, nil
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

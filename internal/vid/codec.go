package vid

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
)

// The .vvf container: a small header followed by gzip-compressed frame
// payloads. Each frame is one kind byte and W·H·3 payload bytes, of three
// kinds:
//
//   - raw (0): the pixels. The first frame is always raw.
//   - delta (1): the byte-wise difference from the previous frame, which
//     compresses extremely well for surveillance footage where
//     consecutive frames are near-identical — the same temporal
//     redundancy the paper's key-frame extraction exploits.
//   - shifted delta (2): one more byte before the payload, a signed column
//     shift d with 1 <= |d| <= maxShift and |d| < W. Each pixel x of a row
//     is the difference from the previous frame's pixel x+d on the same
//     row; the columns whose x+d falls outside the frame carry raw pixels.
//
// The writer shifts only when the header says Moving: it scores the
// candidate shifts on sampled rows of the two frames (bestShift) and
// writes a shifted delta when some d != 0 scores strictly better than
// d = 0, and a plain delta otherwise. The shift is a pure function of the
// two frames, so the bytes never depend on who wrote them or in what
// windows, and a static-camera stream holds raw and delta frames only.
//
// The compressed body is a series of blocked gzip members, as BGZF
// blocks a BAM file. Each is a standard RFC 1952 member with FEXTRA set,
// whose extra field starts with one subfield, ID "VB", holding the whole
// member's byte length as a 4-byte little-endian integer. A member holds
// whole frames: it closes at the first frame boundary at or past
// memberTarget bytes of uncompressed stream, and the last one at Close;
// a stream without frames is one empty member. The boundaries depend on
// the frames alone. A reader finds each member by its recorded size
// without inflating it, so members inflate in parallel (memberReader).
// Any gzip reader reads the body as one multistream, and a body whose
// first member lacks the subfield (every stream written before blocking)
// is read that way, serially.
//
// The codec itself lives in stream.go as a windowed Writer/Reader pair;
// the whole-video Encode/Decode entry points here are wrappers over them,
// so the batch and streaming paths share one implementation and their
// byte streams are identical by construction.

const (
	vvfMagic   = "VVF1"
	maxFrames  = 1 << 20
	maxDim     = 1 << 14
	frameRaw   = 0
	frameDelta = 1
	frameShift = 2

	// memberTarget is the uncompressed size past which a member closes at
	// the next frame boundary.
	memberTarget = 64 << 10
	// memberHeaderLen is a blocked member's bytes before its deflate data:
	// the 10-byte gzip header, XLEN, and the size subfield (ID, LEN and
	// the size), whose size starts at memberSizeAt.
	memberHeaderLen = 10 + 2 + 8
	memberSizeAt    = memberHeaderLen - 4
	// memberTrailerLen is the CRC-32 and ISIZE after the deflate data.
	memberTrailerLen = 8
)

// memberSubfield is the size subfield as the writer emits it, before the
// member's size is patched in: ID "VB", LEN 4.
var memberSubfield = [8]byte{'V', 'B', 4, 0}

// ErrFormat reports a malformed .vvf stream.
var ErrFormat = errors.New("vid: invalid vvf stream")

// memberWriter compresses the container body into blocked members with
// one BestSpeed compressor, reset for each member, and one buffer that
// holds a member's compressed bytes until its size is known. The batch
// and windowed writers both go through it, so the compressed stream never
// depends on which path produced it.
type memberWriter struct {
	w     io.Writer    // where each finished member goes
	zw    *gzip.Writer // compresses the open member into buf
	buf   bytes.Buffer
	n     int  // uncompressed bytes in the open member
	wrote bool // a member has been written to w
}

func newMemberWriter(w io.Writer) *memberWriter {
	m := &memberWriter{w: w}
	// The level is valid, so NewWriterLevel cannot fail.
	m.zw, _ = gzip.NewWriterLevel(&m.buf, gzip.BestSpeed)
	m.zw.Extra = memberSubfield[:]
	return m
}

// Write adds p to the open member.
func (m *memberWriter) Write(p []byte) (int, error) {
	m.n += len(p)
	return m.zw.Write(p)
}

// endFrame marks a frame boundary: the open member closes when it holds
// memberTarget bytes or more.
func (m *memberWriter) endFrame() error {
	if m.n < memberTarget {
		return nil
	}
	return m.flush()
}

// Close closes the open member, or writes the one empty member of a
// stream without frames. It does not close w.
func (m *memberWriter) Close() error {
	if m.n == 0 && m.wrote {
		return nil
	}
	return m.flush()
}

// flush finishes the open member, records its size in its subfield,
// writes it to w and opens the next.
func (m *memberWriter) flush() error {
	if err := m.zw.Close(); err != nil {
		return err
	}
	b := m.buf.Bytes()
	binary.LittleEndian.PutUint32(b[memberSizeAt:], uint32(len(b)))
	if _, err := m.w.Write(b); err != nil {
		return err
	}
	m.buf.Reset()
	m.zw.Reset(&m.buf)
	m.zw.Extra = memberSubfield[:]
	m.n, m.wrote = 0, true
	return nil
}

// newVVFDecompressor opens the container's decompressor over br, which
// stands at the body's first member. A member that inflates past
// memberLimit bytes is malformed. A blocked body starts no goroutine
// until its first Read.
func newVVFDecompressor(br *bufio.Reader, memberLimit int) (io.Reader, error) {
	if head, err := br.Peek(memberHeaderLen); err == nil {
		if _, ok := memberSize(head); ok {
			return &memberReader{src: br, limit: memberLimit}, nil
		}
	}
	return gzip.NewReader(br)
}

// memberSize returns the size a member header records, and false when
// head does not start a blocked member.
func memberSize(head []byte) (int, bool) {
	const fextra = 1 << 2
	if len(head) < memberHeaderLen || head[0] != 0x1f || head[1] != 0x8b || head[2] != 8 ||
		head[3]&fextra == 0 || binary.LittleEndian.Uint16(head[10:]) < 8 ||
		!bytes.Equal(head[12:memberSizeAt], memberSubfield[:4]) {
		return 0, false
	}
	return int(binary.LittleEndian.Uint32(head[memberSizeAt:])), true
}

// memberReader serves the inflated bytes of a blocked body in order. It
// reads each member's compressed bytes by its recorded size on the
// caller's goroutine, and inflates it on a goroutine of its own that
// ends when the member is done, so an abandoned memberReader leaks
// nothing. The member at the cursor and the members after it, GOMAXPROCS
// in all, are read and inflating at once, each in a slot whose buffers
// and inflater the stream reuses; serving a member's bytes is a copy, so
// the inflates keep every core busy. A member's error, whether found
// reading or inflating it, surfaces when the cursor reaches the member.
type memberReader struct {
	src   *bufio.Reader
	limit int
	// slots hold members head..tail-1, member k in slots[k%len(slots)];
	// nil until the first Read.
	slots      []memberSlot
	head, tail int
	srcDone    bool   // src holds no member past tail-1
	out        []byte // the unread bytes of member head-1
	err        error  // what Read returns once out is empty
}

// memberSlot is one member in flight: its compressed bytes, which the
// cursor reads, then its inflated bytes and error, which its goroutine
// writes and hands over by sending on done.
type memberSlot struct {
	comp []byte
	data []byte
	err  error
	done chan struct{}
	br   bytes.Reader
	zr   gzip.Reader
}

func (m *memberReader) Read(p []byte) (int, error) {
	for len(m.out) == 0 {
		if m.err != nil {
			return 0, m.err
		}
		m.advance()
	}
	n := copy(p, m.out)
	m.out = m.out[n:]
	return n, nil
}

// advance moves the cursor to the next member: it starts members until
// GOMAXPROCS from it on are in flight, then waits for its result.
func (m *memberReader) advance() {
	if m.slots == nil {
		m.slots = make([]memberSlot, runtime.GOMAXPROCS(0))
	}
	for !m.srcDone && m.tail-m.head < len(m.slots) {
		m.start()
	}
	if m.head == m.tail {
		m.err = io.EOF
		return
	}
	s := &m.slots[m.head%len(m.slots)]
	m.head++
	<-s.done
	if m.err = s.err; m.err == nil {
		m.out = s.data
	}
}

// start reads member tail from src and starts its inflate. A read error
// is the member's result, and no member after it is read; src ending
// cleanly before the member ends the body.
func (m *memberReader) start() {
	s := &m.slots[m.tail%len(m.slots)]
	if s.done == nil {
		s.done = make(chan struct{}, 1)
	}
	s.comp, s.err = readMember(m.src, s.comp[:0])
	if s.err == io.EOF {
		m.srcDone = true
		return
	}
	m.tail++
	if s.err != nil {
		m.srcDone = true
		s.done <- struct{}{}
		return
	}
	go s.inflate(m.limit)
}

// readMember appends one blocked member from src to buf: its header, then
// the rest by the size it records. The size sizes no buffer before its
// bytes arrive (readGrowing). It returns io.EOF when src ends before the
// member starts.
func readMember(src io.Reader, buf []byte) ([]byte, error) {
	buf, err := readGrowing(buf, src, memberHeaderLen)
	if err != nil {
		return buf, err
	}
	size, ok := memberSize(buf)
	switch {
	case !ok:
		return buf, errors.New("member without its size subfield")
	case size < memberHeaderLen+memberTrailerLen:
		return buf, fmt.Errorf("member size %d below its header and trailer", size)
	}
	buf, err = readGrowing(buf, src, size)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return buf, err
}

// inflate inflates the slot's member into data and hands the result over.
func (s *memberSlot) inflate(limit int) {
	s.data, s.err = s.inflateMember(s.data[:0], limit)
	s.done <- struct{}{}
}

// inflateMember inflates the one member in comp into data, growing it as
// bytes arrive and never past limit (the ISIZE trailer sizes nothing).
// The member must end exactly at its recorded size.
func (s *memberSlot) inflateMember(data []byte, limit int) ([]byte, error) {
	s.br.Reset(s.comp)
	if err := s.zr.Reset(&s.br); err != nil {
		return data, err
	}
	s.zr.Multistream(false)
	for {
		if len(data) == cap(data) {
			data = slices.Grow(data, max(len(data), growChunk))
		}
		k, err := s.zr.Read(data[len(data):cap(data)])
		data = data[:len(data)+k]
		switch {
		case len(data) > limit:
			return data, fmt.Errorf("member inflates past %d bytes", limit)
		case err == io.EOF:
			if s.br.Len() != 0 {
				return data, fmt.Errorf("member size %d past its gzip trailer", len(s.comp))
			}
			return data, nil
		case err != nil:
			return data, err
		}
	}
}

// Encode writes v to w in .vvf format and returns the number of compressed
// payload bytes written (the "bandwidth" of Table 3).
func Encode(w io.Writer, v *Video) (int64, error) {
	sw, err := NewWriter(w, MetaOf(v))
	if err != nil {
		return 0, err
	}
	if err := sw.Append(v.Frames); err != nil {
		return 0, err
	}
	if err := sw.Close(); err != nil {
		return 0, err
	}
	return sw.Written(), nil
}

// Decode reads a .vvf stream back into a Video.
func Decode(r io.Reader) (*Video, error) {
	sr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	meta := sr.Meta()
	v := New(meta.Name, meta.W, meta.H, meta.FPS)
	v.Moving = meta.Moving
	for {
		frames, _, err := sr.Next(0)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		v.Frames = append(v.Frames, frames...)
	}
	return v, nil
}

// WriteFile saves v to path in .vvf format, creating parent directories, and
// returns the compressed size in bytes.
func WriteFile(path string, v *Video) (int64, error) {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return 0, err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n, err := Encode(f, v)
	if err != nil {
		return 0, err
	}
	return n, f.Close()
}

// ReadFile loads a .vvf video from disk.
func ReadFile(path string) (*Video, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}

// EncodedSize returns the compressed .vvf size of v without keeping the
// stream — the Table 3 "bandwidth" figure.
func EncodedSize(v *Video) (int64, error) {
	return Encode(io.Discard, v)
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

package vid

import (
	"compress/gzip"
	"errors"
	"io"
	"os"
	"path/filepath"
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
)

// ErrFormat reports a malformed .vvf stream.
var ErrFormat = errors.New("vid: invalid vvf stream")

// newVVFCompressor wraps w in the container's compressor (gzip at
// BestSpeed). Both the batch and windowed writers go through here so the
// compressed stream never depends on which path produced it.
func newVVFCompressor(w io.Writer) (io.WriteCloser, error) {
	return gzip.NewWriterLevel(w, gzip.BestSpeed)
}

// newVVFDecompressor opens the container's decompressor over r.
func newVVFDecompressor(r io.Reader) (io.ReadCloser, error) {
	return gzip.NewReader(r)
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

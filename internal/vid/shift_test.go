package vid

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"verro/internal/img"
	"verro/internal/stream"
)

// panClip cuts a w×h clip from one wider random frame: frame k is the
// crop at column offs[k], as the sanitizer draws a moving camera's
// frames over one panorama. Frame k+1 is then frame k shifted by
// offs[k+1]-offs[k] columns.
func panClip(w, h int, moving bool, offs ...int) *Video {
	rng := rand.New(rand.NewSource(int64(w*h + len(offs))))
	wide := newRandomFrame(rng, w+2*maxShift, h)
	v := New("pan", w, h, 25)
	v.Moving = moving
	for _, off := range offs {
		f := img.New(w, h)
		for y := 0; y < h; y++ {
			copy(f.Pix[3*y*w:3*(y+1)*w], wide.Pix[3*(y*wide.W+off):3*(y*wide.W+off+w)])
		}
		v.Frames = append(v.Frames, f)
	}
	return v
}

// frameKinds walks an encoded stream's inflated payload and returns each
// frame's kind and shift (0 unless the kind is frameShift).
func frameKinds(t *testing.T, data []byte) (kinds []byte, shifts []int) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	m := r.Meta()
	for range m.Frames {
		if _, err := io.ReadFull(r.zr, r.head[:1]); err != nil {
			t.Fatal(err)
		}
		d := 0
		if r.head[0] == frameShift {
			if _, err := io.ReadFull(r.zr, r.head[1:]); err != nil {
				t.Fatal(err)
			}
			d = int(int8(r.head[1]))
		}
		kinds, shifts = append(kinds, r.head[0]), append(shifts, d)
		if _, err := io.CopyN(io.Discard, r.zr, int64(m.W*m.H*3)); err != nil {
			t.Fatal(err)
		}
	}
	return kinds, shifts
}

// plainStream is the container with every frame after the first coded as
// a plain delta, built here byte for byte from the format description.
func plainStream(t *testing.T, v *Video) []byte {
	t.Helper()
	var payload []byte
	for k, f := range v.Frames {
		if k == 0 {
			payload = append(append(payload, frameRaw), f.Pix...)
			continue
		}
		payload = append(payload, frameDelta)
		for j, b := range f.Pix {
			payload = append(payload, b-v.Frames[k-1].Pix[j])
		}
	}
	return vvfStream(t, MetaOf(v), payload)
}

// vvfStream writes meta's header and then each payload as one member,
// compressed as the Writer compresses, without checking the payloads.
func vvfStream(tb testing.TB, meta stream.Meta, payloads ...[]byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, meta)
	if err != nil {
		tb.Fatal(err)
	}
	for _, p := range payloads {
		if _, err := w.zw.Write(p); err != nil {
			tb.Fatal(err)
		}
		if err := w.zw.flush(); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.zw.Close(); err != nil {
		tb.Fatal(err)
	}
	if err := w.bw.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestShiftedDeltaRoundTrip cuts a three-frame clip at offsets 8, 8+d,
// 8+d for every shift in range: a Moving writer codes frame 1 as a delta
// shifted by d and frame 2, which repeats it, as a plain delta, and both
// the Reader and a FileSource decode the frames exactly. A static writer
// codes the same clip as plain deltas, in the bytes of the format before
// the shifted kind existed.
func TestShiftedDeltaRoundTrip(t *testing.T) {
	for _, w := range []int{24, 9, 5} {
		for d := -maxShift; d <= maxShift; d++ {
			if d == 0 || d >= w || -d >= w {
				continue
			}
			v := panClip(w, 6, true, maxShift, maxShift+d, maxShift+d)
			var buf bytes.Buffer
			if _, err := Encode(&buf, v); err != nil {
				t.Fatal(err)
			}
			kinds, shifts := frameKinds(t, buf.Bytes())
			if string(kinds) != "\x00\x02\x01" || shifts[1] != d {
				t.Errorf("w=%d d=%d: kinds %v shifts %v, want [0 2 1] with shift %d", w, d, kinds, shifts, d)
			}
			back, err := Decode(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("w=%d d=%d: %v", w, d, err)
			}
			for k := range v.Frames {
				if !back.Frame(k).Equal(v.Frame(k)) {
					t.Fatalf("w=%d d=%d: frame %d differs after the round trip", w, d, k)
				}
			}
			path, _ := writeTestVVF(t, v)
			replay(t, path, nextCalls(1, 2, 1))

			static := *v
			static.Moving = false
			buf.Reset()
			if _, err := Encode(&buf, &static); err != nil {
				t.Fatal(err)
			}
			if want := plainStream(t, &static); !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("w=%d d=%d: a static writer's stream differs from the plain-delta stream", w, d)
			}
		}
	}
	// The stream tests' clip stays plain-delta although it is Moving:
	// their offsets count 1 + W·H·3 bytes a frame.
	var buf bytes.Buffer
	if _, err := Encode(&buf, streamTestVideo(23)); err != nil {
		t.Fatal(err)
	}
	if kinds, _ := frameKinds(t, buf.Bytes()); bytes.IndexByte(kinds, frameShift) >= 0 {
		t.Errorf("streamTestVideo codes shifted frames: %v", kinds)
	}
}

// TestBestShiftTiesKeepPlainDelta pins the search's order: a frame that
// equals its predecessor keeps d = 0, and so does a uniform frame, where
// d = 0 compares the most pixels; of two shifts that score alike, the one
// tried first, -m before +m, wins.
func TestBestShiftTiesKeepPlainDelta(t *testing.T) {
	v := panClip(16, 4, true, 4, 4)
	if d := bestShift(v.Frame(1).Pix, v.Frame(0).Pix, 16, 4); d != 0 {
		t.Errorf("identical frames: shift %d, want 0", d)
	}
	flat := img.NewFilled(16, 4, img.RGB{R: 1, G: 2, B: 3})
	if d := bestShift(flat.Pix, flat.Pix, 16, 4); d != 0 {
		t.Errorf("uniform frames: shift %d, want 0", d)
	}
	// Columns alternate two colours, so shifts of -1 and +1 both match
	// every pixel they compare and d = 0 matches none.
	cur, prev := img.New(16, 4), img.New(16, 4)
	for y := 0; y < 4; y++ {
		for x := 0; x < 16; x++ {
			cur.Set(x, y, img.RGB{R: uint8(x % 2)})
			prev.Set(x, y, img.RGB{R: uint8((x + 1) % 2)})
		}
	}
	if d := bestShift(cur.Pix, prev.Pix, 16, 4); d != -1 {
		t.Errorf("alternating columns: shift %d, want -1 (the first of the best)", d)
	}
}

// badStream is a stream the Reader must reject with ErrFormat, and the
// message its failure carries.
type badStream struct {
	name, err string
	data      []byte
}

// badShiftStreams are the malformed shifted frames.
func badShiftStreams(tb testing.TB) []badStream {
	tb.Helper()
	meta := func(w int) stream.Meta { return stream.Meta{Name: "bad", W: w, H: 2, FPS: 25, Moving: true, Frames: 2} }
	frame := func(w int, head ...byte) []byte { return append(head, make([]byte, w*2*3)...) }
	raw := frame(12, frameRaw)
	return []badStream{
		{"shift on frame 0", "delta frame 0 without base", vvfStream(tb, meta(12), frame(12, frameShift, 1))},
		{"zero shift", "frame 1 shift 0 out of range", vvfStream(tb, meta(12), slices.Concat(raw, frame(12, frameShift, 0)))},
		{"beyond the search", "frame 1 shift 9 out of range", vvfStream(tb, meta(12), slices.Concat(raw, frame(12, frameShift, 9)))},
		{"beyond the search, left", "frame 1 shift -9 out of range", vvfStream(tb, meta(12), slices.Concat(raw, frame(12, frameShift, 0xf7)))},
		{"beyond a narrow frame", "frame 1 shift 4 out of range", vvfStream(tb, meta(4), slices.Concat(frame(4, frameRaw), frame(4, frameShift, 4)))},
		{"cut after the shift", "frame 1 payload: EOF", vvfStream(tb, meta(12), slices.Concat(raw, []byte{frameShift, 1}))},
		{"cut before the shift", "frame 1 shift: EOF", vvfStream(tb, meta(12), slices.Concat(raw, []byte{frameShift}))},
	}
}

func TestReaderRejectsBadShifts(t *testing.T) {
	for _, c := range badShiftStreams(t) {
		_, err := Decode(bytes.NewReader(c.data))
		if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: Decode error %v, want ErrFormat with %q", c.name, err, c.err)
		}
	}
}

// legacyPanFrames is the sha256 of the frames in testdata/legacy-pan.vvf,
// concatenated.
const legacyPanFrames = "eead22cd7a72503ad17508633dccb3e3be9ac325d99f5dee6d725530f2640be5"

// TestLegacyMovingFileReads decodes a Moving clip's stream written before
// the shifted kind existed (raw and plain-delta frames only): its frames
// must hash as they did when it was written. The clip pans, so today's
// writer codes it with shifted frames.
func TestLegacyMovingFileReads(t *testing.T) {
	data, err := os.ReadFile("testdata/legacy-pan.vvf")
	if err != nil {
		t.Fatal(err)
	}
	if kinds, _ := frameKinds(t, data); bytes.IndexByte(kinds, frameShift) >= 0 {
		t.Fatalf("the legacy stream holds shifted frames: %v", kinds)
	}
	v, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.New()
	for _, f := range v.Frames {
		sum.Write(f.Pix)
	}
	if got := hex.EncodeToString(sum.Sum(nil)); !v.Moving || got != legacyPanFrames {
		t.Fatalf("legacy stream: moving=%t, frames sha256 %s, want moving with %s", v.Moving, got, legacyPanFrames)
	}
	var buf bytes.Buffer
	if _, err := Encode(&buf, v); err != nil {
		t.Fatal(err)
	}
	if kinds, _ := frameKinds(t, buf.Bytes()); bytes.IndexByte(kinds, frameShift) < 0 {
		t.Errorf("today's writer codes the legacy clip without a shifted frame: %v", kinds)
	}
}

// TestDecodeAllocationFollowsInput decodes streams whose header promises
// one square frame of up to 16384² pixels (768 MiB), or 2²⁰ one-pixel
// frames, and whose body holds only the first frame's kind byte, in one
// blocked member: as written, with a size subfield that claims 4 GiB, and
// with an ISIZE trailer that claims 4 GiB. Each must fail with ErrFormat
// having allocated less than 1 MiB, not what the header, the subfield or
// the trailer promised.
func TestDecodeAllocationFollowsInput(t *testing.T) {
	metas := []stream.Meta{{Name: "many", W: 1, H: 1, FPS: 25, Frames: maxFrames}}
	for _, side := range []int{256, 1024, 2048, maxDim} {
		metas = append(metas, stream.Meta{Name: "big", W: side, H: side, FPS: 25, Frames: 1})
	}
	claim4GiB := func(data []byte, at int) []byte {
		data = bytes.Clone(data)
		binary.LittleEndian.PutUint32(data[at:], math.MaxUint32)
		return data
	}
	for _, meta := range metas {
		data := vvfStream(t, meta, []byte{frameRaw})
		for _, c := range []struct {
			name string
			data []byte
		}{
			{"as written", data},
			{"size subfield claims 4 GiB", claim4GiB(data, headerLen(meta.Name)+memberSizeAt)},
			{"ISIZE claims 4 GiB", claim4GiB(data, len(data)-4)},
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Decode(bytes.NewReader(c.data))
			runtime.ReadMemStats(&after)
			geom := fmt.Sprintf("%d×%d×%d, %s", meta.W, meta.H, meta.Frames, c.name)
			if !errors.Is(err, ErrFormat) {
				t.Errorf("%s: Decode error %v, want ErrFormat", geom, err)
			}
			alloc := after.TotalAlloc - before.TotalAlloc
			t.Logf("%s: %d bytes, %.2f MiB allocated", geom, len(c.data), float64(alloc)/(1<<20))
			if alloc >= 1<<20 {
				t.Errorf("%s: a %d-byte stream made Decode allocate %.1f MiB", geom, len(c.data), float64(alloc)/(1<<20))
			}
		}
	}
}

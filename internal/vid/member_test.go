package vid

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"verro/internal/stream"
)

// The blocked body: where the Writer closes its members, what every
// reader makes of them, and that the lookahead inflating them ends with
// the members it inflates.

// headerLen is the length of a .vvf header whose name is name.
func headerLen(name string) int { return len(vvfMagic) + 3*4 + 8 + 1 + 2 + len(name) }

// splitMembers cuts the body of a .vvf stream into its members by the
// sizes their subfields record.
func splitMembers(tb testing.TB, data []byte, name string) [][]byte {
	tb.Helper()
	var ms [][]byte
	for off := headerLen(name); off < len(data); {
		size, ok := memberSize(data[off:])
		if !ok || size > len(data)-off {
			tb.Fatalf("no blocked member of a valid size at byte %d", off)
		}
		ms = append(ms, data[off:off+size])
		off += size
	}
	return ms
}

// flipCRC returns data with a bit of member k's CRC-32 flipped.
func flipCRC(tb testing.TB, data []byte, name string, k int) []byte {
	tb.Helper()
	ms := splitMembers(tb, data, name)
	at := headerLen(name) - memberTrailerLen
	for _, m := range ms[:k+1] {
		at += len(m)
	}
	data = bytes.Clone(data)
	data[at] ^= 1
	return data
}

// inflateOne inflates one gzip member on its own.
func inflateOne(tb testing.TB, member []byte) []byte {
	tb.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(member))
	if err != nil {
		tb.Fatal(err)
	}
	zr.Multistream(false)
	p, err := io.ReadAll(zr)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// encodeClip is v's .vvf stream.
func encodeClip(tb testing.TB, v *Video) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := Encode(&buf, v); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriterBlocksMembers walks encoded clips member by member: each
// member records its own length, holds whole frames and closes at the
// first frame boundary at or past memberTarget, and a clip without frames
// is one empty member. A plain multistream gzip reader, as streams were
// read before the body was blocked, reads the same bytes as the Reader.
func TestWriterBlocksMembers(t *testing.T) {
	for _, c := range []struct {
		v       *Video
		members int
	}{
		{noisyTestVideo(100), 4}, // 29 frames of 2,305 bytes a member
		{panClip(200, 120, false, 0, 0, 1), 3},
		{New("empty", 8, 8, 25), 1},
	} {
		data := encodeClip(t, c.v)
		frameLen := 1 + c.v.W*c.v.H*3
		ms := splitMembers(t, data, c.v.Name)
		if len(ms) != c.members {
			t.Errorf("%s: %d members, want %d", c.v.Name, len(ms), c.members)
		}
		var body []byte
		for i, m := range ms {
			p := inflateOne(t, m)
			switch {
			case len(p)%frameLen != 0:
				t.Errorf("%s: member %d holds %d bytes, not whole %d-byte frames", c.v.Name, i, len(p), frameLen)
			case i < len(ms)-1 && (len(p) < memberTarget || len(p)-frameLen >= memberTarget):
				t.Errorf("%s: member %d closes after %d bytes, not at the first frame boundary past %d", c.v.Name, i, len(p), memberTarget)
			}
			body = append(body, p...)
		}
		if len(body) != c.v.Len()*frameLen {
			t.Errorf("%s: the members hold %d bytes, want %d", c.v.Name, len(body), c.v.Len()*frameLen)
		}
		zr, err := gzip.NewReader(bytes.NewReader(data[headerLen(c.v.Name):]))
		if err != nil {
			t.Fatal(err)
		}
		multi, err := io.ReadAll(zr)
		if err != nil || !bytes.Equal(multi, body) {
			t.Errorf("%s: a multistream gzip reader reads %d bytes (%v), want the members' %d", c.v.Name, len(multi), err, len(body))
		}
		if _, payload := vvfPayload(t, data, c.v.Name); !bytes.Equal(payload, body) {
			t.Errorf("%s: the Reader's body differs from the members'", c.v.Name)
		}
	}
}

// tinyMeta is the geometry of the hand-built blocked streams: 4×2 frames,
// 25 bytes a frame record.
func tinyMeta(frames int) stream.Meta {
	return stream.Meta{Name: "members", W: 4, H: 2, FPS: 25, Frames: frames}
}

// tinyFrames are four frame records of tinyMeta: one raw frame and three
// plain deltas.
func tinyFrames() [][]byte {
	var frames [][]byte
	for k := range 4 {
		f := []byte{frameDelta}
		if k == 0 {
			f[0] = frameRaw
		}
		for i := range 24 {
			f = append(f, byte(i*7+k))
		}
		frames = append(frames, f)
	}
	return frames
}

// tinyMembers is tinyFrames' stream, each frame its own member.
func tinyMembers(tb testing.TB) []byte {
	return vvfStream(tb, tinyMeta(4), tinyFrames()...)
}

// badMember is a blocked stream that fails at the first frame of one
// member, frame at, with an error that carries err.
type badMember struct {
	name, err string
	at        int
	data      []byte
}

// badMemberStreams breaks tinyMembers in each way a blocked body can
// break.
func badMemberStreams(tb testing.TB) []badMember {
	tb.Helper()
	good := tinyMembers(tb)
	ms := splitMembers(tb, good, "members")
	off := make([]int, len(ms)) // where each member starts
	off[0] = headerLen("members")
	for i := 1; i < len(ms); i++ {
		off[i] = off[i-1] + len(ms[i-1])
	}
	// withSize returns good with member 1's recorded size set to n.
	withSize := func(n int) []byte {
		d := bytes.Clone(good)
		binary.LittleEndian.PutUint32(d[off[1]+memberSizeAt:], uint32(n))
		return d
	}
	var plain bytes.Buffer
	zw := gzip.NewWriter(&plain)
	zw.Write(inflateOne(tb, ms[2]))
	zw.Close()
	// A member of tinyMeta inflates to at most memberTarget+2+24 bytes; a
	// member one byte longer holds frame 1 and zeros, which read as raw
	// frames.
	frames := tinyFrames()
	long := append(bytes.Clone(frames[1]), make([]byte, memberTarget+2)...)
	return []badMember{
		{"size past the end of the stream", "unexpected EOF", 1, withSize(len(good))},
		{"size below the member header", "member size 12 below its header and trailer", 1, withSize(12)},
		{"size into the next member", fmt.Sprintf("member size %d past its gzip trailer", len(ms[1])+5), 1, withSize(len(ms[1]) + 5)},
		{"bad CRC in member 2", "gzip: invalid checksum", 2, flipCRC(tb, good, "members", 2)},
		{"plain member after blocked ones", "member without its size subfield", 2, append(bytes.Clone(good[:off[2]]), append(plain.Bytes(), ms[3]...)...)},
		{"cut inside member 2", "unexpected EOF", 2, good[:off[2]+len(ms[2])/2]},
		{"cut inside member 2's header", "unexpected EOF", 2, good[:off[2]+memberHeaderLen/2]},
		{"member past the bound", fmt.Sprintf("member inflates past %d bytes", memberTarget+2+24), 1,
			vvfStream(tb, tinyMeta(4), frames[0], long, frames[2], frames[3])},
	}
}

// readEach reads data through the Reader one frame a call up to the
// first error, and returns every call's result.
func readEach(t *testing.T, data []byte) []readResult {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var res []readResult
	for {
		frames, start, err := r.Next(1)
		res = append(res, result(frames, start, err))
		if err != nil {
			return res
		}
	}
}

// TestBrokenMemberFailsAtItsFirstFrame reads each broken stream frame by
// frame at GOMAXPROCS 1, 2 and 8, so with one to eight members inflating
// at once: every frame before the broken member is returned, its first
// frame fails with ErrFormat, and the results are the same at every
// setting. A FileSource then matches the Reader call for call.
func TestBrokenMemberFailsAtItsFirstFrame(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	// Member 2 of the Writer's four starts at frame 58.
	v := noisyTestVideo(100)
	long := flipCRC(t, encodeClip(t, v), v.Name, 2)
	cases := append(badMemberStreams(t), badMember{"bad CRC in member 2 of a Writer's stream", "gzip: invalid checksum", 58, long})
	for _, c := range cases {
		var want []readResult
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got := readEach(t, c.data)
			if want == nil {
				want = got
				last := got[len(got)-1]
				if len(got) != c.at+1 || !errors.Is(last.err, ErrFormat) ||
					!strings.Contains(last.err.Error(), fmt.Sprintf("frame %d kind: %s", c.at, c.err)) {
					t.Errorf("%s: call %d fails with %v; want call %d to fail at frame %d with %q",
						c.name, len(got)-1, last.err, c.at, c.at, c.err)
				}
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d calls at GOMAXPROCS %d, %d at 1", c.name, len(got), procs, len(want))
			}
			for i := range want {
				if msg := diffResults(got[i], want[i]); msg != "" {
					t.Fatalf("%s: call %d at GOMAXPROCS %d: %s", c.name, i, procs, msg)
				}
			}
		}
		path := filepath.Join(t.TempDir(), "broken.vvf")
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int{0, 1, 3, 16} {
			budgets := make([]int, c.at+3)
			for i := range budgets {
				budgets[i] = budget
			}
			replay(t, path, nextCalls(budgets...))
		}
	}
}

// TestBlockedFramesSameAtEveryGOMAXPROCS decodes one multi-member stream
// at GOMAXPROCS 1, 2 and 8: the frames are the clip's at each.
func TestBlockedFramesSameAtEveryGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	v := noisyTestVideo(100)
	data := encodeClip(t, v)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		back, err := Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		for k := range v.Frames {
			if !back.Frame(k).Equal(v.Frame(k)) {
				t.Fatalf("GOMAXPROCS %d: frame %d differs", procs, k)
			}
		}
	}
}

// TestMemberLookaheadEnds holds the lookahead's goroutines to the
// members they inflate: the count returns to its baseline after a source
// is closed mid-pass, after a decode error, and after a Reader is
// abandoned mid-stream; a source opened and closed without Next, as
// verrod probes a job's input, starts none.
func TestMemberLookaheadEnds(t *testing.T) {
	v := noisyTestVideo(100)
	path, data := writeTestVVF(t, v)
	badPath := filepath.Join(t.TempDir(), "bad.vvf")
	if err := os.WriteFile(badPath, flipCRC(t, data, v.Name, 2), 0o644); err != nil {
		t.Fatal(err)
	}
	open := func(path string) *FileSource {
		src, err := OpenFileSource(path)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	base := runtime.NumGoroutine()

	probe := open(path)
	if mr, ok := probe.in.r.zr.(*memberReader); !ok || mr.slots != nil {
		t.Fatalf("the opened source's decompressor is %T, started %t; want an idle *memberReader", probe.in.r.zr, ok)
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("opening a source started %d goroutines", n-base)
	}
	probe.Close()
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("opening and closing a source started %d goroutines", n-base)
	}

	first := open(path)
	if _, _, err := first.Next(8); err != nil {
		t.Fatal(err)
	}
	first.Close()
	waitGoroutines(t, base, "a source closed after its first window")

	broken := open(badPath)
	var err error
	for err == nil {
		_, _, err = broken.Next(8)
	}
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("the broken source fails with %v, want ErrFormat", err)
	}
	broken.Close()
	waitGoroutines(t, base, "a source that failed in member 2")

	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Next(3); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base, "a Reader abandoned mid-stream")
}

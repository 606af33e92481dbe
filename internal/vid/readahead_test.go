package vid

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"verro/internal/img"
)

// The read-ahead FileSource must be indistinguishable from the synchronous
// Reader: these tests drive both over the same bytes with the same calls
// and compare every result, then check that the decode goroutine never
// outlives its window.

// readCall is one step of a call sequence: Next(budget), or a Reset.
type readCall struct {
	budget int
	reset  bool
}

// readResult is what one call returned.
type readResult struct {
	pix   [][]byte
	start int
	err   error
}

func result(frames []*img.Image, start int, err error) readResult {
	res := readResult{start: start, err: err}
	for _, f := range frames {
		res.pix = append(res.pix, f.Pix)
	}
	return res
}

// replay runs calls on a FileSource over path and on a Reader over the
// same bytes, failing at the first call whose results differ.
func replay(t *testing.T, path string, calls []readCall) {
	t.Helper()
	replayWith(t, path, calls, nil)
}

// replayWith is replay with before(i, src) run ahead of call i, when
// before is not nil.
func replayWith(t *testing.T, path string, calls []readCall, before func(int, *FileSource)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A Reset of the synchronous side re-parses the header, as
	// FileSource.Reset does.
	newReader := func() *Reader {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	want := newReader()
	got, err := OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	for i, c := range calls {
		if before != nil {
			before(i, got)
		}
		if c.reset {
			if err := got.Reset(); err != nil {
				t.Fatalf("call %d: Reset: %v", i, err)
			}
			want = newReader()
			continue
		}
		g := result(got.Next(c.budget))
		w := result(want.Next(c.budget))
		if msg := diffResults(g, w); msg != "" {
			t.Fatalf("call %d (Next(%d)) of %v: %s", i, c.budget, calls, msg)
		}
	}
}

func diffResults(got, want readResult) string {
	switch {
	case fmt.Sprint(got.err) != fmt.Sprint(want.err):
		return fmt.Sprintf("error %v, want %v", got.err, want.err)
	case (got.err == io.EOF) != (want.err == io.EOF):
		return "io.EOF differs"
	case got.start != want.start:
		return "start differs"
	case len(got.pix) != len(want.pix):
		return "frame count differs"
	}
	for k := range want.pix {
		if !bytes.Equal(got.pix[k], want.pix[k]) {
			return "frame pixels differ"
		}
	}
	return ""
}

// nextCalls turns budgets into a sequence of Next calls.
func nextCalls(budgets ...int) []readCall {
	calls := make([]readCall, len(budgets))
	for i, b := range budgets {
		calls[i].budget = b
	}
	return calls
}

// randomCalls draws a call sequence: a budget held for a few calls, then
// changed (0 and 1 included), and an occasional Reset mid-pass.
func randomCalls(rng *rand.Rand, n int) []readCall {
	budgets := []int{0, 1, 2, 3, 4, 7, 16, 50}
	calls := make([]readCall, 0, n)
	budget := budgets[rng.IntN(len(budgets))]
	for len(calls) < n {
		switch p := rng.IntN(20); {
		case p == 0:
			calls = append(calls, readCall{reset: true})
		case p < 4:
			budget = budgets[rng.IntN(len(budgets))]
		default:
			calls = append(calls, readCall{budget: budget})
		}
	}
	return calls
}

// writeTestVVF writes v to a temporary .vvf file and returns its path and
// bytes.
func writeTestVVF(t *testing.T, v *Video) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.vvf")
	if _, err := WriteFile(path, v); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

func TestFileSourceMatchesReader(t *testing.T) {
	path, _ := writeTestVVF(t, noisyTestVideo(23))
	next := nextCalls
	reset := []readCall{{reset: true}}
	fixed := [][]readCall{
		next(0, 0),
		next(1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
		next(4, 4, 1, 2, 9, 4, 0, 0), // smaller, then larger, then the rest
		next(5, 5, 0, 5),             // 0 tops up the window decoded ahead
		append(append(next(4, 4), reset...), next(4, 4, 4, 4, 4, 4, 4, 4)...), // Reset mid-pass
		append(append(next(16, 16, 16), reset...), next(3, 16, 0)...),
	}
	for _, calls := range fixed {
		replay(t, path, calls)
	}
	rng := rand.New(rand.NewPCG(16, 0))
	for range 50 {
		replay(t, path, randomCalls(rng, 30))
	}
}

// noisyTestVideo is a 32×24 clip with per-pixel noise: its stream is
// several bufio reads long, so a decode in flight still reads the file.
func noisyTestVideo(n int) *Video {
	v := New("noisy", 32, 24, 25)
	s := uint64(1)
	for k := 0; k < n; k++ {
		f := img.New(32, 24)
		for i := range f.Pix {
			s = s*6364136223846793005 + 1442695040888963407
			f.Pix[i] = uint8((i*3+k*17)%256) + uint8(s>>61)
		}
		v.Frames = append(v.Frames, f)
	}
	return v
}

// vvfPayload splits a .vvf stream into its header and its inflated frame
// payload.
func vvfPayload(t *testing.T, data []byte, name string) (header, payload []byte) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	payload, err = io.ReadAll(r.zr)
	if err != nil {
		t.Fatal(err)
	}
	return data[:headerLen(name)], payload
}

// recompress encodes header and payload as the container does. With cut,
// the gzip member ends after a sync flush, followed by tail, instead of
// its final block and trailer: everything before the cut inflates, and
// the inflater fails at the cut.
func recompress(t *testing.T, header, payload []byte, cut bool, tail ...byte) []byte {
	t.Helper()
	out := bytes.NewBuffer(append([]byte(nil), header...))
	zw, err := gzip.NewWriterLevel(out, gzip.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if cut {
		err = zw.Flush()
		out.Write(tail)
	} else {
		err = zw.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// firstFailure runs the synchronous Reader over data with a fixed budget
// and returns the index of the first call that fails, and its error; -1
// when the pass ends cleanly.
func firstFailure(t *testing.T, data []byte, budget int) (int, error) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for call := 0; ; call++ {
		if _, _, err := r.Next(budget); err == io.EOF {
			return -1, nil
		} else if err != nil {
			return call, err
		}
	}
}

// TestFileSourceErrorsMatchReader feeds both readers streams that break at
// frame 13, in a window decoded ahead: the read-ahead source must fail on
// the same call, with the same error, as the synchronous Reader, and keep
// matching it after.
func TestFileSourceErrorsMatchReader(t *testing.T) {
	const frames, bad = 23, 13
	v := streamTestVideo(frames)
	_, data := writeTestVVF(t, v)
	header, payload := vvfPayload(t, data, v.Name)
	at := bad * (1 + v.W*v.H*3) // offset of frame 13's kind byte
	badKind := append([]byte(nil), payload...)
	badKind[at] = 7
	broken := map[string]struct {
		data []byte
		err  string
	}{
		// The file ends inside frame 13's pixels.
		"truncated": {recompress(t, header, payload[:at+40], true), "frame 13 payload: unexpected EOF"},
		// A block with the reserved type 3 follows frame 12.
		"corrupted": {recompress(t, header, payload[:at], true, 0xff), "frame 13 kind: flate: corrupt input"},
		// Frame 13 inflates cleanly and carries no known kind.
		"unknown kind": {recompress(t, header, badKind, false), "frame 13 unknown kind 7"},
	}
	rng := rand.New(rand.NewPCG(23, 0))
	for name, b := range broken {
		if call, err := firstFailure(t, b.data, 4); call != 3 || !strings.Contains(err.Error(), b.err) {
			t.Fatalf("%s: the Reader fails on call %d with %v; want call 3 with %q", name, call, err, b.err)
		}
		path := filepath.Join(t.TempDir(), "broken.vvf")
		if err := os.WriteFile(path, b.data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Each fixed-budget sequence calls Next well past the failure.
		for _, budget := range []int{0, 1, 4, 5, 16} {
			budgets := make([]int, frames+3)
			for i := range budgets {
				budgets[i] = budget
			}
			replay(t, path, nextCalls(budgets...))
		}
		// These take exactly the frames decoded ahead of the failure, and
		// then call again: windows 12-15 and 10-14 stop at frame 13.
		replay(t, path, nextCalls(4, 4, 4, 1, 4, 4))
		replay(t, path, nextCalls(5, 5, 3, 5, 5))
		for range 50 {
			replay(t, path, randomCalls(rng, 30))
		}
	}
}

// waitGoroutines polls until the goroutine count is back to base.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want %d", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFileSourceJoinsReadAhead starts a decode and, while it is in flight,
// resets, closes or drops the source: Reset and Close must receive the
// window in flight, and no goroutine may outlive the window it decodes.
func TestFileSourceJoinsReadAhead(t *testing.T) {
	path, _ := writeTestVVF(t, noisyTestVideo(40))
	base := runtime.NumGoroutine()
	inFlight := func() (*FileSource, chan decodedRun) {
		src, err := OpenFileSource(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := src.Next(8); err != nil {
			t.Fatal(err)
		}
		if src.ahead == nil {
			t.Fatal("no decode in flight after Next")
		}
		return src, src.ahead
	}
	// A window left in its channel was never received by the call.
	joined := func(ahead chan decodedRun, what string) {
		t.Helper()
		waitGoroutines(t, base, what)
		if len(ahead) != 0 {
			t.Fatalf("%s returned without receiving the window in flight", what)
		}
	}

	src, ahead := inFlight()
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	joined(ahead, "Reset")
	frames, start, err := src.Next(3)
	if err != nil || start != 0 || len(frames) != 3 {
		t.Fatalf("after Reset: %d frames at %d, %v; want 3 at 0", len(frames), start, err)
	}
	ahead = src.ahead
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	joined(ahead, "Close")

	dropped, _ := inFlight()
	waitGoroutines(t, base, "a source dropped without Close")
	dropped.Close()
}

// TestFileSourceCloseIdempotent: stream.Source promises that Close is
// idempotent, also with a decode in flight.
func TestFileSourceCloseIdempotent(t *testing.T) {
	path, _ := writeTestVVF(t, streamTestVideo(9))
	src, err := OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := src.Next(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := src.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
}

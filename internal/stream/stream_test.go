package stream

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"verro/internal/img"
)

// mkFrames builds n tiny frames whose first pixel byte encodes their index,
// so a test can verify exactly which frames a pass was shown.
func mkFrames(n int) []*img.Image {
	out := make([]*img.Image, n)
	for i := range out {
		f := img.New(2, 2)
		f.Pix[0] = uint8(i)
		out[i] = f
	}
	return out
}

func testSource(n int) *SliceSource {
	return NewSliceSource(Meta{Name: "t", W: 2, H: 2, FPS: 1}, mkFrames(n))
}

// frameIndex recovers the clip index a mkFrames frame encodes.
func frameIndex(f *img.Image) int { return int(f.Pix[0]) }

func TestEachPartitionsClip(t *testing.T) {
	for _, tc := range []struct {
		clip, budget int
		sizes        []int
	}{
		{10, 3, []int{3, 3, 3, 1}}, // final partial run
		{10, 5, []int{5, 5}},       // exact division
		{10, 1, []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}},
		{10, 64, []int{10}}, // budget > clip
		{10, 0, []int{10}},  // whole-clip run
		{1, 4, []int{1}},    // single-frame clip
		{0, 4, nil},         // empty clip: fn never runs
	} {
		t.Run(fmt.Sprintf("clip=%d,budget=%d", tc.clip, tc.budget), func(t *testing.T) {
			var sizes []int
			next := 0
			err := Each(testSource(tc.clip), tc.budget, func(frames []*img.Image, start int) error {
				if start != next {
					t.Fatalf("run %d starts at frame %d, want %d", len(sizes), start, next)
				}
				for i, f := range frames {
					if got := frameIndex(f); got != start+i {
						t.Fatalf("run at %d: frame %d holds clip frame %d, want %d", start, i, got, start+i)
					}
				}
				sizes = append(sizes, len(frames))
				next = start + len(frames)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sizes, tc.sizes) {
				t.Fatalf("run sizes %v, want %v", sizes, tc.sizes)
			}
		})
	}
}

// stubSource answers every Next with no frames and err: with a nil err, a
// run with no frames before io.EOF, the way a broken source could.
type stubSource struct {
	*SliceSource
	err error
}

func (s stubSource) Next(int) ([]*img.Image, int, error) { return nil, 0, s.err }

func TestEachEmptyRunFails(t *testing.T) {
	called := false
	err := Each(stubSource{SliceSource: testSource(4)}, 2, func([]*img.Image, int) error {
		called = true
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "stream: source returned an empty window at frame 0") {
		t.Fatalf("got %v, want the empty-window error", err)
	}
	if called {
		t.Fatal("fn ran on an empty run")
	}
}

func TestEachWrapsSourceError(t *testing.T) {
	broken := errors.New("broken")
	err := Each(stubSource{testSource(4), broken}, 2, func([]*img.Image, int) error {
		t.Fatal("fn ran after a source error")
		return nil
	})
	if !errors.Is(err, broken) || !strings.HasPrefix(err.Error(), "stream: source: ") {
		t.Fatalf("got %v, want the source error wrapped as stream: source", err)
	}
}

func TestEachStopsOnFnError(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	err := Each(testSource(6), 2, func([]*img.Image, int) error {
		calls++
		return boom
	})
	if err != boom {
		t.Fatalf("got %v, want fn's error unwrapped", err)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
}

func TestSliceSourceReset(t *testing.T) {
	src := testSource(5)
	read := func() int {
		n := 0
		for {
			fs, _, err := src.Next(2)
			if err != nil {
				break
			}
			n += len(fs)
		}
		return n
	}
	if n := read(); n != 5 {
		t.Fatalf("first pass read %d frames, want 5", n)
	}
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	if n := read(); n != 5 {
		t.Fatalf("second pass read %d frames, want 5", n)
	}
}

func TestCollectSink(t *testing.T) {
	var sink CollectSink
	if err := sink.Append(mkFrames(3)); err != nil {
		t.Fatal(err)
	}
	if err := sink.Append(mkFrames(2)); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if len(sink.Frames) != 5 {
		t.Fatalf("collected %d frames, want 5", len(sink.Frames))
	}
	if err := sink.Append(mkFrames(1)); err == nil {
		t.Fatal("append after close did not fail")
	}
}

package vid

import (
	"bytes"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
)

// The spill changes where FileSource's frames come from, never what Next
// returns. These tests break the spill in each way FileSource gives it up
// and replay call sequences against the Reader, then check that a clean
// file inflates once and that the spill leaves no file behind.

// TestFileSourceWithoutSpill runs the read-ahead equivalence tests with
// TMPDIR naming a missing directory: no spill can be created, so every
// Reset rewinds the file, and every call sequence still matches Reader.
func TestFileSourceWithoutSpill(t *testing.T) {
	// The first TempDir call fixes the test's directory; later calls
	// create subdirectories of it whatever TMPDIR says.
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
	path, _ := writeTestVVF(t, noisyTestVideo(9))
	src, err := OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, _, err := src.Next(4); err != nil {
		t.Fatal(err)
	}
	src.join()
	if src.in.spill != nil || !src.in.dropped {
		t.Fatal("a source without a temporary directory kept a spill")
	}
	TestFileSourceMatchesReader(t)
	TestFileSourceErrorsMatchReader(t)
}

// TestFileSourceSpillFails closes the spill's file between two calls.
// During the first pass the next write to it fails; after a Reset the
// next read from it fails. Either way the source drops the spill and
// keeps matching Reader.
func TestFileSourceSpillFails(t *testing.T) {
	path, _ := writeTestVVF(t, noisyTestVideo(23))
	broken := map[string]int{} // replays that dropped the spill, by the access that failed
	breakAt := func(t *testing.T, calls []readCall, at int) {
		t.Helper()
		var r *Reader // the Reader when the spill broke, until the drop is seen
		replayWith(t, path, calls, func(i int, src *FileSource) {
			// Next and Reset receive the window in flight first too;
			// after that the cursor is this goroutine's to inspect.
			src.join()
			switch {
			case i == at && src.in.spill != nil:
				r = src.in.r
				src.in.spill.f.Close()
			case r != nil && src.in.dropped:
				// A failed write leaves the Reader in place; a failed
				// read rewinds the file to inflate the frame instead.
				if src.in.r == r {
					broken["write"]++
				} else {
					broken["read"]++
				}
				r = nil
			}
		})
	}
	next, reset := nextCalls, []readCall{{reset: true}}
	calls := append(append(next(4, 4, 4, 4, 4, 4, 4), reset...), next(3, 3, 3, 3, 3, 3, 3, 3, 3)...)
	calls = append(append(calls, reset...), next(0, 0)...)
	for at := range calls {
		breakAt(t, calls, at)
	}
	rng := rand.New(rand.NewPCG(17, 0))
	for range 50 {
		calls := randomCalls(rng, 30)
		breakAt(t, calls, rng.IntN(len(calls)))
	}
	if broken["write"] == 0 || broken["read"] == 0 {
		t.Fatalf("spills dropped after a failed write/read: %d/%d, want both > 0",
			broken["write"], broken["read"])
	}
}

// TestFileSourceInflatesOnce makes three full passes over a clean file,
// with a Reset between them and another budget in each: the one Reader
// the source opened serves them all and ends at the last frame, so the
// stream was inflated once.
func TestFileSourceInflatesOnce(t *testing.T) {
	v := noisyTestVideo(23)
	path, _ := writeTestVVF(t, v)
	src, err := OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	r := src.in.r
	for pass, budget := range []int{4, 0, 7} {
		if pass > 0 {
			if err := src.Reset(); err != nil {
				t.Fatal(err)
			}
		}
		n := 0
		for {
			frames, start, err := src.Next(budget)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("pass %d: %v", pass, err)
			}
			for k, f := range frames {
				if !bytes.Equal(f.Pix, v.Frames[start+k].Pix) {
					t.Fatalf("pass %d: frame %d differs", pass, start+k)
				}
			}
			n += len(frames)
		}
		if n != v.Len() {
			t.Fatalf("pass %d: %d frames, want %d", pass, n, v.Len())
		}
	}
	if src.in.r != r || r.pos != v.Len() || src.in.spill.Frames() != v.Len() {
		t.Fatalf("after three passes: reader replaced %v, at frame %d, %d frames spilled; want the first reader at %d",
			src.in.r != r, src.in.r.pos, src.in.spill.Frames(), v.Len())
	}
}

// TestFileSourceSpillLeavesNoFile: the spill is unlinked as soon as it is
// created, so TMPDIR stays empty while the source is open and after Close,
// and a source opened and closed without Next creates no spill at all.
// Where the unlink failed, Close removes the file.
func TestFileSourceSpillLeavesNoFile(t *testing.T) {
	path, _ := writeTestVVF(t, noisyTestVideo(23))
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	empty := func(when string) {
		t.Helper()
		entries, err := os.ReadDir(tmp)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Fatalf("%s: TMPDIR holds %v", when, entries)
		}
	}

	probe, err := OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	if probe.in.spill != nil {
		t.Fatal("opening a source created a spill")
	}
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}
	empty("after a probe")

	for _, unlinked := range []bool{true, false} {
		src, err := OpenFileSource(path)
		if err != nil {
			t.Fatal(err)
		}
		for range 3 {
			if _, _, err := src.Next(8); err != nil {
				t.Fatal(err)
			}
		}
		if err := src.Reset(); err != nil {
			t.Fatal(err)
		}
		if src.in.spill == nil {
			t.Fatal("no spill after a pass")
		}
		if !unlinked {
			// Stand in for a failed unlink: the spill names a file
			// that Close must remove.
			src.in.spill.path = filepath.Join(tmp, "spill.raw")
			if err := os.WriteFile(src.in.spill.path, nil, 0o600); err != nil {
				t.Fatal(err)
			}
		} else {
			empty("while the source is open")
		}
		if _, _, err := src.Next(5); err != nil {
			t.Fatal(err)
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
		empty("after Close")
	}
}

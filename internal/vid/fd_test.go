package vid

import (
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"

	"verro/internal/img"
)

// openFDs reports the process's open file descriptors via /proc/self/fd;
// ok is false where that view does not exist (non-Linux).
func openFDs() (n int, ok bool) {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0, false
	}
	// The ReadDir call itself holds one fd on the directory.
	return len(ents) - 1, true
}

// TestFilesClosedOnEveryPath: each of the package's functions that opens
// a file leaves no descriptor open, whether it fails after the open or
// succeeds. The collector is off for the test, so a file dropped without
// Close is not closed by its finalizer before the count.
func TestFilesClosedOnEveryPath(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	v := streamTestVideo(3)
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.vvf")
	if err := os.WriteFile(bad, []byte("not a vvf stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	staging := filepath.Join(dir, "staging.raw")
	s, err := CreateRawStore(staging, v.W, v.H)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(v.Frames[:2]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "good.vvf")
	// A frame wider than the first fails both encoders after the open.
	wrong := New("wrong", v.W, v.H, v.FPS)
	wrong.Frames = []*img.Image{v.Frames[0], img.New(v.W+1, v.H)}
	empty := New("empty", v.W, v.H, v.FPS)
	sink := func(frames []*img.Image) error {
		s, err := CreateFileSink(filepath.Join(dir, "sink.vvf"), MetaOf(v))
		if err != nil {
			return err
		}
		if err := s.Append(frames); err != nil {
			return err
		}
		return s.Close()
	}

	base, ok := openFDs()
	if !ok {
		t.Skip("no /proc/self/fd on this system")
	}
	for _, c := range []struct {
		name    string
		run     func() error
		wantErr bool
	}{
		{"OpenFileSource on a bad header", func() error { _, err := OpenFileSource(bad); return err }, true},
		{"OpenRawStore past the end of the file", func() error { _, err := OpenRawStore(staging, v.W, v.H, 3); return err }, true},
		{"FileSink closed short", func() error { return sink(v.Frames[:1]) }, true},
		{"FileSink closed complete", func() error { return sink(v.Frames) }, false},
		{"WriteFile of a wrongly sized frame", func() error { _, err := WriteFile(filepath.Join(dir, "wrong.vvf"), wrong); return err }, true},
		{"WriteFile of a good clip", func() error { _, err := WriteFile(good, v); return err }, false},
		{"ReadFile of a bad header", func() error { _, err := ReadFile(bad); return err }, true},
		{"ReadFile of a good clip", func() error { _, err := ReadFile(good); return err }, false},
		{"WriteGIF of a wrongly sized frame", func() error { return wrong.WriteGIF(filepath.Join(dir, "wrong.gif"), 1) }, true},
		{"WriteGIF of a good clip", func() error { return v.WriteGIF(filepath.Join(dir, "good.gif"), 1) }, false},
		{"SaveY4M of an empty video", func() error { return SaveY4M(filepath.Join(dir, "empty.y4m"), empty) }, true},
		{"SaveY4M of a good clip", func() error { return SaveY4M(filepath.Join(dir, "good.y4m"), v) }, false},
	} {
		if err := c.run(); (err != nil) != c.wantErr {
			t.Fatalf("%s: err = %v, want an error: %v", c.name, err, c.wantErr)
		}
		if got, _ := openFDs(); got > base {
			t.Errorf("%s: %d descriptors open, %d before", c.name, got, base)
		}
	}
}

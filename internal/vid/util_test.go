package vid

import (
	"os"
	"testing"
)

func TestWriteGIF(t *testing.T) {
	v := testVideo(t, 6)
	path := t.TempDir() + "/anim/out.gif"
	if err := v.WriteGIF(path, 2); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Fatal("empty gif")
	}
	empty := New("e", 4, 4, 30)
	if err := empty.WriteGIF(path, 1); err == nil {
		t.Fatal("empty video should fail")
	}
}

func TestWebSafePalette(t *testing.T) {
	p := webSafePalette()
	if len(p) == 0 || len(p) > 256 {
		t.Fatalf("palette size %d", len(p))
	}
}

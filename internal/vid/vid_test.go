package vid

import (
	"bytes"
	"strings"
	"testing"

	"verro/internal/img"
)

func testVideo(t *testing.T, frames int) *Video {
	t.Helper()
	v := New("test", 16, 12, 30)
	for i := 0; i < frames; i++ {
		f := img.NewFilled(16, 12, img.RGB{R: uint8(i * 10), G: 50, B: 200})
		f.AddNoise(5, uint64(i))
		if err := v.Append(f); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

func TestAppendValidatesDims(t *testing.T) {
	v := New("x", 8, 8, 30)
	if err := v.Append(img.New(8, 8)); err != nil {
		t.Fatal(err)
	}
	if err := v.Append(img.New(9, 8)); err == nil {
		t.Fatal("mismatched frame should be rejected")
	}
}

func TestFramePanicsOutOfRange(t *testing.T) {
	v := testVideo(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	v.Frame(2)
}

func TestCodecRoundTrip(t *testing.T) {
	v := testVideo(t, 10)
	v.Moving = true
	var buf bytes.Buffer
	n, err := Encode(&buf, v)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("size accounting: reported %d, actual %d", n, buf.Len())
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != v.Name || back.W != v.W || back.H != v.H ||
		back.FPS != v.FPS || back.Moving != v.Moving || back.Len() != v.Len() {
		t.Fatalf("metadata mismatch: %v vs %v", back, v)
	}
	for i := range v.Frames {
		if !v.Frame(i).Equal(back.Frame(i)) {
			t.Fatalf("frame %d differs after round trip", i)
		}
	}
}

func TestCodecEmptyVideo(t *testing.T) {
	v := New("empty", 4, 4, 24)
	var buf bytes.Buffer
	if _, err := Encode(&buf, v); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 0 {
		t.Fatalf("empty video decoded with %d frames", back.Len())
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"XXXX",
		"VVF1",                              // truncated header
		"VVF1" + strings.Repeat("\x00", 10), // still truncated
	}
	for _, c := range cases {
		if _, err := Decode(strings.NewReader(c)); err == nil {
			t.Errorf("Decode(%q) should fail", c)
		}
	}
}

func TestDeltaCompressionHelps(t *testing.T) {
	// A static video (all frames identical) must compress far better than
	// the raw pixel volume.
	v := New("static", 64, 64, 30)
	base := img.NewFilled(64, 64, img.RGB{R: 80, G: 120, B: 160})
	base.AddNoise(25, 1)
	for i := 0; i < 20; i++ {
		if err := v.Append(base.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	size, err := EncodedSize(v)
	if err != nil {
		t.Fatal(err)
	}
	raw := int64(64 * 64 * 3 * 20)
	if size >= raw/4 {
		t.Fatalf("static video should compress >4x: got %d of %d raw", size, raw)
	}
}

func TestWriteReadFile(t *testing.T) {
	v := testVideo(t, 4)
	path := t.TempDir() + "/nested/video.vvf"
	n, err := WriteFile(path, v)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatal("expected positive written size")
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != v.Len() {
		t.Fatalf("frames %d != %d", back.Len(), v.Len())
	}
	for i := range v.Frames {
		if !v.Frame(i).Equal(back.Frame(i)) {
			t.Fatalf("frame %d differs", i)
		}
	}
}

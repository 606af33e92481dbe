package motio

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"verro/internal/geom"
)

func sampleSet() *TrackSet {
	s := NewTrackSet()
	t1 := NewTrack(1, "pedestrian")
	t1.Set(0, geom.RectAt(10, 10, 4, 8))
	t1.Set(1, geom.RectAt(12, 10, 4, 8))
	t1.Set(5, geom.RectAt(20, 10, 4, 8))
	t2 := NewTrack(2, "vehicle")
	t2.Set(1, geom.RectAt(50, 40, 16, 8))
	s.Add(t1)
	s.Add(t2)
	return s
}

func TestTrackBasics(t *testing.T) {
	s := sampleSet()
	tr := s.ByID(1)
	if tr == nil {
		t.Fatal("ByID(1) = nil")
	}
	if !tr.Present(0) || tr.Present(2) {
		t.Fatal("presence wrong")
	}
	if got := tr.Frames(); !reflect.DeepEqual(got, []int{0, 1, 5}) {
		t.Fatalf("Frames = %v", got)
	}
	first, last, ok := tr.Span()
	if !ok || first != 0 || last != 5 {
		t.Fatalf("Span = %d,%d,%t", first, last, ok)
	}
	if c, ok := tr.Center(0); !ok || c != geom.V(12, 14) {
		t.Fatalf("Center = %v,%t", c, ok)
	}
	if _, ok := tr.Center(99); ok {
		t.Fatal("Center of absent frame should be !ok")
	}
	frames, centers := tr.Trajectory()
	if len(frames) != 3 || len(centers) != 3 {
		t.Fatalf("Trajectory lengths %d,%d", len(frames), len(centers))
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if s.ByID(42) != nil {
		t.Fatal("missing ID should return nil")
	}
}

func TestEmptyTrackSpan(t *testing.T) {
	tr := NewTrack(7, "pedestrian")
	if _, _, ok := tr.Span(); ok {
		t.Fatal("empty track should have no span")
	}
}

func TestCountSeries(t *testing.T) {
	s := sampleSet()
	got := s.CountSeries(6)
	want := []int{1, 2, 0, 0, 0, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CountSeries = %v, want %v", got, want)
	}
}

func TestCloneDeep(t *testing.T) {
	s := sampleSet()
	c := s.ByID(1).Clone()
	c.Set(0, geom.RectAt(0, 0, 1, 1))
	if b, _ := s.ByID(1).Box(0); b == geom.RectAt(0, 0, 1, 1) {
		t.Fatal("clone shares box maps")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := sampleSet()
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != s.Len() {
		t.Fatalf("Len = %d, want %d", back.Len(), s.Len())
	}
	for _, orig := range s.Tracks {
		got := back.ByID(orig.ID)
		if got == nil {
			t.Fatalf("missing track %d", orig.ID)
		}
		if got.Class != orig.Class {
			t.Fatalf("class %q != %q", got.Class, orig.Class)
		}
		if !reflect.DeepEqual(got.Boxes, orig.Boxes) {
			t.Fatalf("boxes mismatch for %d: %v vs %v", orig.ID, got.Boxes, orig.Boxes)
		}
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	s := sampleSet()
	path := t.TempDir() + "/gt/tracks.csv"
	if err := s.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("Len = %d", back.Len())
	}
}

func TestReadCSVRejectsMalformed(t *testing.T) {
	cases := []string{
		"frame,id,class,x,y,w,h\n1,2,ped,3,4\n",     // too few fields
		"frame,id,class,x,y,w,h\na,2,ped,3,4,5,6\n", // non-numeric
		"frame,id,class,x,y,w,h\n1,2,ped,3,4,x,6\n", // non-numeric size
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("ReadCSV(%q) should fail", c)
		}
	}
}

func TestSeriesTableRoundTrip(t *testing.T) {
	tab := NewSeriesTable("f", []float64{0.1, 0.5, 0.9})
	if err := tab.AddColumn("original", []float64{23, 23, 23}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn("rr", []float64{17, 16, 15}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "f,original,rr\n0.1,23,17\n0.5,23,16\n0.9,23,15\n"
	if got := buf.String(); got != want {
		t.Fatalf("WriteCSV = %q, want %q", got, want)
	}
}

func TestSeriesTableValidation(t *testing.T) {
	tab := NewSeriesTable("x", []float64{1, 2})
	if err := tab.AddColumn("bad", []float64{1}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if len(tab.Cols) != 0 {
		t.Fatal("failed AddColumn must not append the column")
	}
}

func TestSeriesSaveCSV(t *testing.T) {
	tab := NewSeriesTable("frame", []float64{0, 1})
	if err := tab.AddColumn("count", []float64{3, 4}); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/series/fig.csv"
	if err := tab.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "frame,count\n0,3\n1,4\n"; string(got) != want {
		t.Fatalf("SaveCSV wrote %q, want %q", got, want)
	}
}

func TestIntsToFloats(t *testing.T) {
	got := IntsToFloats([]int{1, 2, 3})
	if !reflect.DeepEqual(got, []float64{1, 2, 3}) {
		t.Fatalf("IntsToFloats = %v", got)
	}
}

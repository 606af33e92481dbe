package motio

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"verro/internal/geom"
)

// TestCSVRoundTripProperty: any randomly generated track set survives CSV
// serialization bit-exactly.
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewTrackSet()
		nTracks := rng.Intn(6)
		for id := 1; id <= nTracks; id++ {
			class := "pedestrian"
			if rng.Intn(2) == 0 {
				class = "vehicle"
			}
			tr := NewTrack(id, class)
			for j := 0; j < rng.Intn(8); j++ {
				tr.Set(rng.Intn(50), geom.RectAt(rng.Intn(100), rng.Intn(100), 1+rng.Intn(20), 1+rng.Intn(20)))
			}
			s.Add(tr)
		}
		var buf bytes.Buffer
		if err := s.WriteCSV(&buf); err != nil {
			return false
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		// Tracks with no boxes are legitimately dropped by the row format.
		for _, orig := range s.Tracks {
			if orig.Len() == 0 {
				continue
			}
			got := back.ByID(orig.ID)
			if got == nil || got.Class != orig.Class || !reflect.DeepEqual(got.Boxes, orig.Boxes) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCountSeriesMatchesCountInFrame: the batched series always agrees
// with a per-frame count of the tracks present in that frame.
func TestCountSeriesMatchesCountInFrame(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewTrackSet()
		for id := 1; id <= 1+rng.Intn(5); id++ {
			tr := NewTrack(id, "pedestrian")
			for j := 0; j < rng.Intn(10); j++ {
				tr.Set(rng.Intn(20), geom.RectAt(0, 0, 2, 2))
			}
			s.Add(tr)
		}
		series := s.CountSeries(20)
		for k := 0; k < 20; k++ {
			n := 0
			for _, tr := range s.Tracks {
				if tr.Present(k) {
					n++
				}
			}
			if series[k] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSpanBracketsAllFrames: every frame of a track lies within its span.
func TestSpanBracketsAllFrames(t *testing.T) {
	f := func(frames []uint8) bool {
		tr := NewTrack(1, "pedestrian")
		for _, fr := range frames {
			tr.Set(int(fr), geom.RectAt(0, 0, 1, 1))
		}
		first, last, ok := tr.Span()
		if !ok {
			return len(frames) == 0
		}
		for k := range tr.Boxes {
			if k < first || k > last {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

package metrics

import (
	"math"
	"testing"

	"verro/internal/geom"
	"verro/internal/interp"
	"verro/internal/motio"
)

func trackWithPath(id int, start int, centers []geom.Vec) *motio.Track {
	t := motio.NewTrack(id, "pedestrian")
	for i, c := range centers {
		t.Set(start+i, geom.CenteredRect(c.Round(), 4, 8))
	}
	return t
}

func TestTrajectoryDeviationIdenticalTracks(t *testing.T) {
	orig := motio.NewTrackSet()
	syn := motio.NewTrackSet()
	path := []geom.Vec{{X: 10, Y: 10}, {X: 12, Y: 10}, {X: 14, Y: 10}}
	orig.Add(trackWithPath(1, 0, path))
	syn.Add(trackWithPath(1, 0, path)) // synthetic ID = orig index + 1 = 1
	if d := TrajectoryDeviation(orig, syn); d != 0 {
		t.Fatalf("identical tracks deviation = %v", d)
	}
}

func TestTrajectoryDeviationMissingSynthetic(t *testing.T) {
	orig := motio.NewTrackSet()
	orig.Add(trackWithPath(1, 0, []geom.Vec{{X: 10, Y: 10}, {X: 12, Y: 10}}))
	syn := motio.NewTrackSet() // empty: object lost
	if d := TrajectoryDeviation(orig, syn); d != 1 {
		t.Fatalf("lost object deviation = %v, want 1", d)
	}
}

func TestTrajectoryDeviationPartial(t *testing.T) {
	orig := motio.NewTrackSet()
	orig.Add(trackWithPath(1, 0, []geom.Vec{{X: 100, Y: 0}, {X: 100, Y: 0}}))
	syn := motio.NewTrackSet()
	// Present in frame 0 at distance 10 (deviation 0.1), absent in frame 1
	// (deviation 1) → mean 0.55.
	syn.Add(trackWithPath(1, 0, []geom.Vec{{X: 110, Y: 0}}))
	got := TrajectoryDeviation(orig, syn)
	if math.Abs(got-0.55) > 1e-9 {
		t.Fatalf("deviation = %v, want 0.55", got)
	}
}

func TestTrajectoryDeviationCapsAtOne(t *testing.T) {
	orig := motio.NewTrackSet()
	orig.Add(trackWithPath(1, 0, []geom.Vec{{X: 5, Y: 0}}))
	syn := motio.NewTrackSet()
	syn.Add(trackWithPath(1, 0, []geom.Vec{{X: 500, Y: 400}}))
	if d := TrajectoryDeviation(orig, syn); d != 1 {
		t.Fatalf("deviation should cap at 1: %v", d)
	}
}

func TestTrajectoryDeviationEmpty(t *testing.T) {
	if d := TrajectoryDeviation(motio.NewTrackSet(), motio.NewTrackSet()); d != 0 {
		t.Fatalf("empty sets deviation = %v", d)
	}
}

func TestSamplesDeviation(t *testing.T) {
	orig := motio.NewTrackSet()
	orig.Add(trackWithPath(1, 0, []geom.Vec{
		{X: 100, Y: 0}, {X: 102, Y: 0}, {X: 104, Y: 0}, {X: 106, Y: 0},
	}))
	// One exact sample at frame 0, nothing elsewhere → (0 + 1 + 1 + 1)/4.
	assigned := [][]interp.Sample{
		{{Frame: 0, Pos: geom.V(100, 0)}},
	}
	got := SamplesDeviation(orig, assigned)
	if math.Abs(got-0.75) > 1e-9 {
		t.Fatalf("samples deviation = %v, want 0.75", got)
	}
	// No samples at all → 1.
	if d := SamplesDeviation(orig, [][]interp.Sample{nil}); d != 1 {
		t.Fatalf("no-sample deviation = %v", d)
	}
	// Missing assignment slot behaves like no samples.
	if d := SamplesDeviation(orig, nil); d != 1 {
		t.Fatalf("nil assigned deviation = %v", d)
	}
}

func TestCountMAE(t *testing.T) {
	if got := CountMAE([]int{1, 2, 3}, []int{1, 2, 3}); got != 0 {
		t.Fatalf("identical MAE = %v", got)
	}
	if got := CountMAE([]int{0, 0}, []int{2, 4}); got != 3 {
		t.Fatalf("MAE = %v, want 3", got)
	}
	// Length mismatch pads with zeros.
	if got := CountMAE([]int{1}, []int{1, 4}); got != 2 {
		t.Fatalf("padded MAE = %v, want 2", got)
	}
	if got := CountMAE(nil, nil); got != 0 {
		t.Fatalf("empty MAE = %v", got)
	}
}

func TestCountCorrelation(t *testing.T) {
	a := []int{1, 2, 3, 4}
	if got := CountCorrelation(a, a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("self correlation = %v", got)
	}
	b := []int{4, 3, 2, 1}
	if got := CountCorrelation(a, b); math.Abs(got+1) > 1e-12 {
		t.Fatalf("anti correlation = %v", got)
	}
	if got := CountCorrelation(a, []int{5, 5, 5, 5}); got != 0 {
		t.Fatalf("constant series correlation = %v", got)
	}
	if got := CountCorrelation(nil, nil); got != 0 {
		t.Fatalf("empty correlation = %v", got)
	}
}

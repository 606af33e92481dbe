package core

import (
	"math"
	"math/rand"
	"testing"

	"verro/internal/geom"
	"verro/internal/keyframe"
	"verro/internal/ldp"
	"verro/internal/motio"
	"verro/internal/obs"
)

// TestCoordinateAssignmentIdentityFree verifies Theorem 4.1's premise
// empirically: when two objects are both present at a key frame, the
// random coordinate assignment gives each candidate coordinate to each
// object with equal probability — no dependence on which original object
// is which.
func TestCoordinateAssignmentIdentityFree(t *testing.T) {
	// Two objects, both present at two key frames; the candidate pool at
	// each key frame is their two (distinct) original positions.
	tracks := motio.NewTrackSet()
	a := motio.NewTrack(1, "pedestrian")
	a.Set(5, geom.RectAt(10, 10, 4, 8))
	a.Set(15, geom.RectAt(14, 10, 4, 8))
	b := motio.NewTrack(2, "pedestrian")
	b.Set(5, geom.RectAt(50, 40, 4, 8))
	b.Set(15, geom.RectAt(54, 40, 4, 8))
	tracks.Add(a)
	tracks.Add(b)

	kf := &keyframe.Result{
		Segments:  []keyframe.Segment{{Start: 0, End: 9, KeyFrame: 5}, {Start: 10, End: 19, KeyFrame: 15}},
		KeyFrames: []int{5, 15},
	}
	p1 := &Phase1Result{
		KeyFrames: []int{5, 15},
		Picked:    []int{0, 1},
		Output: []ldp.BitVector{
			{true, true},
			{true, true},
		},
	}

	trials := 4000
	aGotOwn := 0 // object 1's first draw lands on its own original position
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < trials; i++ {
		p2, err := RunPhase2(p1, kf, tracks, 64, 48, 20, Phase2Config{}, rng, obs.Runtime{})
		if err != nil {
			t.Fatal(err)
		}
		if len(p2.Assigned[0]) == 0 {
			t.Fatal("object 0 unassigned")
		}
		first := p2.Assigned[0][0].Pos
		if first.Dist(geom.V(12, 14)) < 1 { // own center at frame 5
			aGotOwn++
		}
	}
	rate := float64(aGotOwn) / float64(trials)
	if math.Abs(rate-0.5) > 0.03 {
		t.Fatalf("object 0 received its own coordinate with P=%.3f, want 0.5: "+
			"coordinate assignment leaks identity", rate)
	}
}

// TestPhase2SameOutputDistributionForSwappedObjects checks a stronger
// end-to-end property: swapping which original object carries which
// presence pattern does not change the distribution of synthetic tracks
// (summarized by per-frame counts), because Phase II reads identities from
// neither the vectors nor the pools.
func TestPhase2SameOutputDistributionForSwappedObjects(t *testing.T) {
	tracks := motio.NewTrackSet()
	a := motio.NewTrack(1, "pedestrian")
	b := motio.NewTrack(2, "pedestrian")
	for k := 0; k < 20; k++ {
		a.Set(k, geom.RectAt(5+k, 10, 4, 8))
		b.Set(k, geom.RectAt(60-k, 30, 4, 8))
	}
	tracks.Add(a)
	tracks.Add(b)
	kf := &keyframe.Result{
		Segments:  []keyframe.Segment{{Start: 0, End: 9, KeyFrame: 4}, {Start: 10, End: 19, KeyFrame: 14}},
		KeyFrames: []int{4, 14},
	}
	vecs := []ldp.BitVector{{true, false}, {false, true}}
	swapped := []ldp.BitVector{{false, true}, {true, false}}

	meanCounts := func(output []ldp.BitVector, seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		sums := make([]float64, 20)
		const trials = 600
		for i := 0; i < trials; i++ {
			p1 := &Phase1Result{KeyFrames: []int{4, 14}, Picked: []int{0, 1}, Output: output}
			p2, err := RunPhase2(p1, kf, tracks, 80, 48, 20, Phase2Config{}, rng, obs.Runtime{})
			if err != nil {
				t.Fatal(err)
			}
			for k, c := range p2.Tracks.CountSeries(20) {
				sums[k] += float64(c)
			}
		}
		for k := range sums {
			sums[k] /= trials
		}
		return sums
	}

	c1 := meanCounts(vecs, 1)
	c2 := meanCounts(swapped, 2)
	for k := range c1 {
		if math.Abs(c1[k]-c2[k]) > 0.35 {
			t.Fatalf("frame %d: mean synthetic count %v vs %v after identity swap",
				k, c1[k], c2[k])
		}
	}
}

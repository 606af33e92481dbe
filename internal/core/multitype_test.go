package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"verro/internal/geom"
	"verro/internal/interp"
	"verro/internal/motio"
	"verro/internal/scene"
	"verro/internal/vid"
)

// samplesAt builds interpolation samples at the given frames (positions
// increase with frame index).
func samplesAt(frames ...int) []interp.Sample {
	out := make([]interp.Sample, len(frames))
	for i, f := range frames {
		out[i] = interp.Sample{Frame: f, Pos: geom.V(float64(f), 1)}
	}
	return out
}

// mixedScene renders a scene with both pedestrians and vehicles by merging
// two generated videos' ground truths onto one video (pedestrian preset,
// with vehicle tracks relabelled).
func mixedScene(t *testing.T) (*scene.Generated, *motio.TrackSet) {
	t.Helper()
	p := scene.Preset{
		Name: "mixed", W: 96, H: 72, Frames: 40, Objects: 4,
		FPS: 30, Style: scene.StyleStreet, Class: scene.Pedestrian, Seed: 301,
	}
	g, err := scene.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	// Relabel half of the tracks as vehicles: the pixels stay pedestrian
	// sprites, which is fine — the sanitizer only consults the class label.
	mixed := motio.NewTrackSet()
	for i, tr := range g.Truth.Tracks {
		c := tr.Clone()
		if i%2 == 1 {
			c.Class = scene.Vehicle.String()
		}
		mixed.Add(c)
	}
	return g, mixed
}

func TestSanitizeMultiType(t *testing.T) {
	g, mixed := mixedScene(t)
	cfg := DefaultConfig()
	cfg.Keyframe.MaxSegmentLen = 8
	res, err := SanitizeMultiType(g.Video, mixed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Synthetic.Len() != g.Video.Len() {
		t.Fatalf("synthetic frames = %d", res.Synthetic.Len())
	}
	if len(res.PerClass) != 2 {
		t.Fatalf("classes = %d, want 2", len(res.PerClass))
	}
	for name, p1 := range res.PerClass {
		if p1.Epsilon <= 0 {
			t.Fatalf("class %q epsilon = %v", name, p1.Epsilon)
		}
	}
	if res.Epsilon <= 0 {
		t.Fatal("missing overall epsilon")
	}
	// Synthetic IDs must be unique across classes.
	seen := map[int]bool{}
	for _, tr := range res.SyntheticTracks.Tracks {
		if seen[tr.ID] {
			t.Fatalf("duplicate synthetic ID %d", tr.ID)
		}
		seen[tr.ID] = true
	}
	// Both classes should usually survive at f=0.1.
	classes := map[string]int{}
	for _, tr := range res.SyntheticTracks.Tracks {
		classes[tr.Class]++
	}
	if len(classes) == 0 {
		t.Fatal("no synthetic objects at all")
	}
}

// multiTypeDigest summarizes a multi-type run's published artifacts: the
// sha256 of the synthetic-tracks CSV and of the encoded .vvf, plus the bits
// of the overall and per-class ε.
func multiTypeDigest(t *testing.T, res *MultiTypeResult) string {
	t.Helper()
	var tracks, video bytes.Buffer
	if err := res.SyntheticTracks.WriteCSV(&tracks); err != nil {
		t.Fatal(err)
	}
	if _, err := vid.Encode(&video, res.Synthetic); err != nil {
		t.Fatal(err)
	}
	ts, vs := sha256.Sum256(tracks.Bytes()), sha256.Sum256(video.Bytes())
	out := fmt.Sprintf("tracks=%s vvf=%s eps=%016x", hex.EncodeToString(ts[:]), hex.EncodeToString(vs[:]),
		math.Float64bits(res.Epsilon))
	classes := make([]string, 0, len(res.PerClass))
	for name := range res.PerClass {
		classes = append(classes, name)
	}
	sort.Strings(classes)
	for _, name := range classes {
		out += fmt.Sprintf(" %s=%016x", name, math.Float64bits(res.PerClass[name].Epsilon))
	}
	return out
}

// multiTypeGolden pins SanitizeMultiType on the mixedScene clip at seed 7.
// It is compared on GOARCH=amd64 only: other targets may fuse multiply-add.
const multiTypeGolden = "tracks=e632c56125c2de544c8ef087aed4fe152354d92473dd1fe72d02ba464b8652da" +
	" vvf=3741d6df867ade0d0ab86b1b8e7b4e0e18e764b8919a243ec424164f8fdb2d54" +
	" eps=40278e360604b32c pedestrian=40278e360604b32c vehicle=40178e360604b32c"

// TestSanitizeMultiTypeGolden pins the multi-type sanitizer's output bytes
// and holds them identical at one and four workers.
func TestSanitizeMultiTypeGolden(t *testing.T) {
	g, mixed := mixedScene(t)
	var ref string
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Keyframe.MaxSegmentLen = 8
		cfg.Seed = 7
		cfg.Workers = workers
		res, err := SanitizeMultiType(g.Video, mixed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := multiTypeDigest(t, res)
		if ref == "" {
			ref = got
		} else if got != ref {
			t.Fatalf("workers=%d digest %s differs from workers=1 %s", workers, got, ref)
		}
	}
	if runtime.GOARCH == "amd64" && ref != multiTypeGolden {
		t.Fatalf("multi-type golden mismatch:\n got  %s\n want %s", ref, multiTypeGolden)
	}
}

func TestSanitizeMultiTypeValidation(t *testing.T) {
	g, _ := mixedScene(t)
	if _, err := SanitizeMultiType(nil, motio.NewTrackSet(), DefaultConfig()); err == nil {
		t.Fatal("nil video should fail")
	}
	if _, err := SanitizeMultiType(g.Video, nil, DefaultConfig()); err == nil {
		t.Fatal("nil tracks should fail")
	}
	if _, err := SanitizeMultiType(g.Video, motio.NewTrackSet(), DefaultConfig()); err == nil {
		t.Fatal("no objects should fail")
	}
}

func TestSanitizeMultiTypeSingleClassMatchesRegularShape(t *testing.T) {
	g, _ := mixedScene(t)
	cfg := DefaultConfig()
	cfg.Keyframe.MaxSegmentLen = 8
	res, err := SanitizeMultiType(g.Video, g.Truth, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerClass) != 1 {
		t.Fatalf("single-class input produced %d classes", len(res.PerClass))
	}
}

func TestClassOf(t *testing.T) {
	if classOf("vehicle") != scene.Vehicle {
		t.Fatal("vehicle class not recognized")
	}
	if classOf("pedestrian") != scene.Pedestrian || classOf("anything") != scene.Pedestrian {
		t.Fatal("default class should be pedestrian")
	}
}

func TestSplitRuns(t *testing.T) {
	samples := samplesAt(0, 5, 10, 50, 55, 200)
	runs := splitRuns(samples, 20)
	if len(runs) != 3 {
		t.Fatalf("runs = %d, want 3", len(runs))
	}
	if len(runs[0]) != 3 || len(runs[1]) != 2 || len(runs[2]) != 1 {
		t.Fatalf("run sizes wrong: %d %d %d", len(runs[0]), len(runs[1]), len(runs[2]))
	}
	if splitRuns(nil, 10) != nil {
		t.Fatal("empty samples should be nil")
	}
	one := splitRuns(samplesAt(7), 10)
	if len(one) != 1 || len(one[0]) != 1 {
		t.Fatal("single sample should be one run")
	}
}

func TestPickedSpacing(t *testing.T) {
	p1 := &Phase1Result{KeyFrames: []int{0, 10, 20, 30}, Picked: []int{0, 3}}
	if got := pickedSpacing(p1, 100); got != 30 {
		t.Fatalf("spacing = %d, want 30", got)
	}
	single := &Phase1Result{KeyFrames: []int{5}, Picked: []int{0}}
	if got := pickedSpacing(single, 100); got != 100 {
		t.Fatalf("single-pick spacing = %d", got)
	}
	if got := pickedSpacing(&Phase1Result{}, 0); got != 1 {
		t.Fatalf("degenerate spacing = %d", got)
	}
}

func TestDrawCoordinatesSmoothness(t *testing.T) {
	// A returning object should be matched to the nearest candidate.
	rng := rand.New(rand.NewSource(1))
	who := []int{0, 1}
	pool := []geom.Vec{{X: 10, Y: 10}, {X: 100, Y: 100}}
	lastPos := []geom.Vec{{X: 12, Y: 12}, {}}
	hasLast := []bool{true, false}
	out, err := drawCoordinates(who, pool, lastPos, hasLast, rng)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != pool[0] {
		t.Fatalf("returning object matched %v, want nearest %v", out[0], pool[0])
	}
	if out[1] != pool[1] {
		t.Fatalf("new object should take the remaining candidate, got %v", out[1])
	}
}

package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"verro/internal/geom"
	"verro/internal/img"
	"verro/internal/interp"
	"verro/internal/motio"
	"verro/internal/obs"
	"verro/internal/scene"
	"verro/internal/stream"
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

// perClassRun sanitizes g's clip with Config.PerClass set, streaming it
// through the driver in windows of cfg.WindowFrames frames.
func perClassRun(t *testing.T, g *scene.Generated, tracks *motio.TrackSet, cfg Config) *Result {
	t.Helper()
	cfg.PerClass = true
	res, err := Sanitize(g.Video, tracks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSanitizeMultiType(t *testing.T) {
	g, mixed := mixedScene(t)
	cfg := DefaultConfig()
	cfg.Keyframe.MaxSegmentLen = 8
	res := perClassRun(t, g, mixed, cfg)
	if res.Synthetic.Len() != g.Video.Len() {
		t.Fatalf("synthetic frames = %d", res.Synthetic.Len())
	}
	if len(res.PerClass) != 2 {
		t.Fatalf("classes = %d, want 2", len(res.PerClass))
	}
	if res.Phase1 != nil {
		t.Fatal("a per-class run set Result.Phase1")
	}
	for name, p1 := range res.PerClass {
		if p1.Epsilon <= 0 {
			t.Fatalf("class %q epsilon = %v", name, p1.Epsilon)
		}
		if p1.Epsilon > res.Epsilon {
			t.Fatalf("class %q epsilon %v exceeds the run's %v", name, p1.Epsilon, res.Epsilon)
		}
	}
	checkPerClassTracks(t, res, mixed)
}

// checkPerClassTracks holds a per-class run's synthetic tracks to the
// merged plan: synthetic ids are unique across classes, and every object
// of a class that kept a key-frame coordinate is one synthetic track
// labelled with that class. Phase2.Assigned concatenates the classes in
// order of first appearance in tracks.
func checkPerClassTracks(t *testing.T, res *Result, tracks *motio.TrackSet) {
	t.Helper()
	seen := map[int]bool{}
	got := map[string]int{}
	for _, tr := range res.SyntheticTracks.Tracks {
		if seen[tr.ID] {
			t.Fatalf("duplicate synthetic ID %d", tr.ID)
		}
		seen[tr.ID] = true
		got[tr.Class]++
	}
	var order []string
	for _, tr := range tracks.Tracks {
		if !slices.Contains(order, tr.Class) {
			order = append(order, tr.Class)
		}
	}
	want := map[string]int{}
	at, lost := 0, 0
	for _, name := range order {
		n := len(res.PerClass[name].Output)
		for _, a := range res.Phase2.Assigned[at : at+n] {
			if len(a) > 0 {
				want[classOf(name).String()]++
			} else {
				lost++
			}
		}
		at += n
	}
	if at != len(res.Phase2.Assigned) || lost != res.Phase2.Lost {
		t.Fatalf("Phase2 holds %d objects (%d lost), the classes %d (%d lost)",
			len(res.Phase2.Assigned), res.Phase2.Lost, at, lost)
	}
	if len(got) != len(want) {
		t.Fatalf("synthetic tracks per class = %v, want %v", got, want)
	}
	for name, n := range want {
		if got[name] != n {
			t.Fatalf("synthetic tracks per class = %v, want %v", got, want)
		}
	}
}

// multiTypeDigest summarizes a per-class run's published artifacts: the
// sha256 of the synthetic-tracks CSV and of the encoded .vvf, plus the bits
// of the overall and per-class ε.
func multiTypeDigest(t *testing.T, res *Result) string {
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

// multiTypeGolden pins a per-class run on the mixedScene clip at seed 7.
// It is compared on GOARCH=amd64 only: other targets may fuse multiply-add.
const multiTypeGolden = "tracks=e632c56125c2de544c8ef087aed4fe152354d92473dd1fe72d02ba464b8652da" +
	" vvf=754120a3404ec428001767d24ac0a37e4ea36339b4d7f9b6bd1d0547cced80f6" +
	" eps=40278e360604b32c pedestrian=40278e360604b32c vehicle=40178e360604b32c"

// TestSanitizeMultiTypeGolden pins the per-class sanitizer's output bytes
// and holds them identical at one and four workers.
func TestSanitizeMultiTypeGolden(t *testing.T) {
	g, mixed := mixedScene(t)
	var ref string
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Keyframe.MaxSegmentLen = 8
		cfg.Seed = 7
		cfg.Workers = workers
		got := multiTypeDigest(t, perClassRun(t, g, mixed, cfg))
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

// TestSanitizePerClassMatrix holds per-class runs to the driver's
// contracts on the mixed clip: every window size and worker count
// publishes the same bytes, each class's ledger entries partition the clip
// and recompose to that class's ε, and a run resumed at a mid-clip window
// boundary reproduces the uninterrupted run's suffix and synthetic tracks,
// which re-folds the skipped windows' geometry from each placement's class.
func TestSanitizePerClassMatrix(t *testing.T) {
	g, mixed := mixedScene(t)
	base := DefaultConfig()
	base.Keyframe.MaxSegmentLen = 8
	base.Seed = 7
	base.PerClass = true
	meta := vid.MetaOf(g.Video)
	var ref string
	for _, window := range []int{0, 9, 16, 64} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("window=%d/workers=%d", window, workers), func(t *testing.T) {
				cfg := base
				cfg.WindowFrames = window
				cfg.Workers = workers
				full := &stream.CollectSink{}
				res, err := SanitizeStream(stream.NewSliceSource(meta, g.Video.Frames), mixed, cfg, full)
				if err != nil {
					t.Fatal(err)
				}
				res.Synthetic = vid.New(meta.Name+"-verro", meta.W, meta.H, meta.FPS)
				res.Synthetic.Moving = meta.Moving
				res.Synthetic.Frames = full.Frames
				if got := multiTypeDigest(t, res); ref == "" {
					ref = got
				} else if got != ref {
					t.Fatalf("digest %s differs from window=0/workers=1 %s", got, ref)
				}
				checkPerClassTracks(t, res, mixed)
				checkClassLedger(t, res, []string{"pedestrian", "vehicle"}, g.Video.Len())

				// Resume at every interior window boundary: this run's
				// synthetic vehicles first appear at frame 19, so only the
				// later cuts re-fold windows that hold both classes.
				for cut := window; window > 0 && cut < g.Video.Len(); cut += window {
					checkPerClassResume(t, g, mixed, cfg, cut, res, full.Frames)
				}
			})
		}
	}
}

// checkPerClassResume resumes a per-class run at window boundary cut and
// holds it to the uninterrupted run: the frames from cut on, the
// synthetic tracks (whose skipped windows are re-folded from the plan's
// geometry) and the ledger.
func checkPerClassResume(t *testing.T, g *scene.Generated, tracks *motio.TrackSet, cfg Config, cut int, full *Result, frames []*img.Image) {
	t.Helper()
	part := &stream.CollectSink{}
	res, err := SanitizeStreamFrom(stream.NewSliceSource(vid.MetaOf(g.Video), g.Video.Frames), tracks, cfg, part, cut)
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Frames) != len(frames)-cut {
		t.Fatalf("resumed at %d: %d frames, want %d", cut, len(part.Frames), len(frames)-cut)
	}
	for i, f := range part.Frames {
		if !f.Equal(frames[cut+i]) {
			t.Fatalf("resumed at %d: frame %d differs from the uninterrupted run", cut, cut+i)
		}
	}
	var a, b bytes.Buffer
	if err := full.SyntheticTracks.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := res.SyntheticTracks.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("resumed at %d: synthetic tracks differ from the uninterrupted run", cut)
	}
	if len(res.Windows) != len(full.Windows) {
		t.Fatalf("resumed at %d: %d ledger entries, want %d", cut, len(res.Windows), len(full.Windows))
	}
	for i, w := range res.Windows {
		if w != full.Windows[i] {
			t.Fatalf("resumed at %d: ledger entry %d = %+v, want %+v", cut, i, w, full.Windows[i])
		}
	}
}

// checkClassLedger verifies a per-class ledger: one entry per class per
// window, ordered by window and then by class (classes in order of first
// appearance); each class's entries partition the clip, their integer
// picked counts sum to the class's K, and the closed form over that K is
// the class's ε bit for bit.
func checkClassLedger(t *testing.T, res *Result, classes []string, clipLen int) {
	t.Helper()
	if len(res.Windows)%len(classes) != 0 {
		t.Fatalf("%d ledger entries for %d classes", len(res.Windows), len(classes))
	}
	for c, name := range classes {
		p1 := res.PerClass[name]
		next, picked := 0, 0
		for i := c; i < len(res.Windows); i += len(classes) {
			w := res.Windows[i]
			if w.Class != name {
				t.Fatalf("ledger entry %d is class %q, want %q", i, w.Class, name)
			}
			if w.Start != next {
				t.Fatalf("class %q: ledger window starts at %d, want %d", name, w.Start, next)
			}
			next += w.Frames
			picked += w.Picked
		}
		if next != clipLen {
			t.Fatalf("class %q: ledger covers %d frames, clip has %d", name, next, clipLen)
		}
		if picked != len(p1.Picked) {
			t.Fatalf("class %q: ledger picked %d key frames, phase 1 picked %d", name, picked, len(p1.Picked))
		}
		if eps := float64(picked) * math.Log((2-p1.F)/p1.F); eps != p1.Epsilon {
			t.Fatalf("class %q: recomposed epsilon %v != %v", name, eps, p1.Epsilon)
		}
	}
}

// TestSanitizeMultiTypeEpsBudget: under an ε budget each class resolves
// its own f over the key frames it picked, so every class spends exactly
// the budget even though the classes pick different numbers of frames.
func TestSanitizeMultiTypeEpsBudget(t *testing.T) {
	g, mixed := mixedScene(t)
	const budget = 20.0
	cfg := DefaultConfig()
	cfg.Keyframe.MaxSegmentLen = 8
	cfg.Seed = 7
	cfg.Phase1.Eps = budget
	res := perClassRun(t, g, mixed, cfg)
	if len(res.PerClass) != 2 {
		t.Fatalf("classes = %d, want 2", len(res.PerClass))
	}
	picked := map[int]bool{}
	for name, p1 := range res.PerClass {
		if math.Abs(p1.Epsilon-budget) > 1e-9*budget {
			t.Errorf("class %q epsilon = %v over %d key frames, want %v", name, p1.Epsilon, len(p1.Picked), budget)
		}
		picked[len(p1.Picked)] = true
	}
	if len(picked) < 2 {
		t.Fatal("both classes picked the same number of key frames; the clip no longer tells a shared f from a per-class one")
	}
}

func TestSanitizeMultiTypeValidation(t *testing.T) {
	g, _ := mixedScene(t)
	cfg := DefaultConfig()
	cfg.PerClass = true
	if _, err := Sanitize(nil, motio.NewTrackSet(), cfg); err == nil {
		t.Fatal("nil video should fail")
	}
	if _, err := Sanitize(g.Video, nil, cfg); err == nil {
		t.Fatal("nil tracks should fail")
	}
	// No tracks fails before the analysis pass, per class or plain, at
	// any window.
	for _, perClass := range []bool{true, false} {
		for _, window := range []int{0, 1} {
			cfg := DefaultConfig()
			cfg.PerClass = perClass
			cfg.WindowFrames = window
			cfg.Trace = obs.NewTrace("no-objects")
			_, err := Sanitize(g.Video, motio.NewTrackSet(), cfg)
			if err == nil || err.Error() != "core: no objects to sanitize" {
				t.Errorf("PerClass=%v window=%d: err = %v, want core: no objects to sanitize", perClass, window, err)
			}
			if cfg.Trace.Report().Span.Find("analysis") != nil {
				t.Errorf("PerClass=%v window=%d: the run opened an analysis span before failing", perClass, window)
			}
		}
	}
}

// TestSanitizeMultiTypeSingleClassMatchesRegularShape: a per-class run over
// tracks of one class draws the same random numbers in the same order as a
// plain run and renders the same plan, so it publishes the plain run's
// bytes: the same encoded .vvf, synthetic-tracks CSV and ε bits, and the
// same ledger apart from the entries' class name.
func TestSanitizeMultiTypeSingleClassMatchesRegularShape(t *testing.T) {
	g, _ := mixedScene(t)
	for _, window := range []int{0, 16} {
		cfg := DefaultConfig()
		cfg.Keyframe.MaxSegmentLen = 8
		cfg.WindowFrames = window
		plain, err := Sanitize(g.Video, g.Truth, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := perClassRun(t, g, g.Truth, cfg)
		if len(res.PerClass) != 1 || res.PerClass["pedestrian"] == nil {
			t.Fatalf("single-class input produced classes %v", res.PerClass)
		}
		plain.PerClass = map[string]*Phase1Result{"pedestrian": plain.Phase1}
		if got, want := multiTypeDigest(t, res), multiTypeDigest(t, plain); got != want {
			t.Fatalf("window %d: per-class run\n %s\nplain run\n %s", window, got, want)
		}
		if len(res.Windows) != len(plain.Windows) {
			t.Fatalf("window %d: %d ledger entries, plain run %d", window, len(res.Windows), len(plain.Windows))
		}
		for i, w := range res.Windows {
			if w.Class != "pedestrian" {
				t.Fatalf("window %d: ledger entry %d names class %q", window, i, w.Class)
			}
			w.Class = ""
			if w != plain.Windows[i] {
				t.Fatalf("window %d: ledger entry %d = %+v, plain run %+v", window, i, w, plain.Windows[i])
			}
		}
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

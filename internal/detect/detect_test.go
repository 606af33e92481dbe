package detect

import (
	"fmt"
	"testing"

	"verro/internal/geom"
	"verro/internal/img"
	"verro/internal/obs"
	"verro/internal/scene"
)

func TestNMS(t *testing.T) {
	ds := []Detection{
		{Box: geom.RectAt(0, 0, 10, 10), Score: 0.9},
		{Box: geom.RectAt(1, 1, 10, 10), Score: 0.8},   // overlaps first
		{Box: geom.RectAt(50, 50, 10, 10), Score: 0.7}, // separate
	}
	kept := NMS(ds, 0.5)
	if len(kept) != 2 {
		t.Fatalf("kept = %d, want 2 (%v)", len(kept), kept)
	}
	if kept[0].Score != 0.9 || kept[1].Score != 0.7 {
		t.Fatalf("wrong detections kept: %v", kept)
	}
	if NMS(nil, 0.5) != nil {
		t.Fatal("empty NMS should be nil")
	}

	// Equal scores keep their input order, so of many overlapping
	// detections with one score the first is kept. Fourteen tied boxes
	// interleaved with lower-scored separate ones pass the length below
	// which sort.Slice runs an insertion sort, and make it partition.
	var mixed []Detection
	for i := 0; i < 28; i++ {
		if i%2 == 0 {
			mixed = append(mixed, Detection{Box: geom.RectAt((i*7)%20, 0, 100, 100), Score: 0.5})
		} else {
			mixed = append(mixed, Detection{Box: geom.RectAt(200+30*i, 200, 10, 10), Score: 0.1 * float64(i%5)})
		}
	}
	var tied []Detection
	for _, d := range NMS(mixed, 0.5) {
		if d.Score == 0.5 {
			tied = append(tied, d)
		}
	}
	if len(tied) != 1 || tied[0] != mixed[0] {
		t.Fatalf("NMS kept %v of the tied boxes, want only the first, %v", tied, mixed[0])
	}
}

func TestNMSDoesNotMutateInput(t *testing.T) {
	ds := []Detection{
		{Box: geom.RectAt(0, 0, 4, 4), Score: 0.1},
		{Box: geom.RectAt(20, 0, 4, 4), Score: 0.9},
	}
	NMS(ds, 0.5)
	if ds[0].Score != 0.1 {
		t.Fatal("NMS reordered the caller's slice")
	}
}

// Quality summarizes detector performance against ground truth.
type Quality struct {
	TruePositives  int
	FalsePositives int
	FalseNegatives int
}

// Precision returns TP/(TP+FP), 0 when undefined.
func (q Quality) Precision() float64 {
	d := q.TruePositives + q.FalsePositives
	if d == 0 {
		return 0
	}
	return float64(q.TruePositives) / float64(d)
}

// Recall returns TP/(TP+FN), 0 when undefined.
func (q Quality) Recall() float64 {
	d := q.TruePositives + q.FalseNegatives
	if d == 0 {
		return 0
	}
	return float64(q.TruePositives) / float64(d)
}

// F1 returns the harmonic mean of precision and recall.
func (q Quality) F1() float64 {
	p, r := q.Precision(), q.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

func (q Quality) String() string {
	return fmt.Sprintf("P=%.3f R=%.3f F1=%.3f (tp=%d fp=%d fn=%d)",
		q.Precision(), q.Recall(), q.F1(), q.TruePositives, q.FalsePositives, q.FalseNegatives)
}

// Evaluate greedily matches detections to ground-truth boxes at the given
// IoU threshold and tallies quality counters. The detector tests score
// their detections with it.
func Evaluate(ds []Detection, truth []geom.Rect, iouThreshold float64) Quality {
	sorted := append([]Detection(nil), ds...)
	sortByScore(sorted)
	used := make([]bool, len(truth))
	var q Quality
	for _, d := range sorted {
		best := -1
		bestIoU := iouThreshold
		for i, t := range truth {
			if used[i] {
				continue
			}
			if iou := geom.IoU(d.Box, t); iou >= bestIoU {
				best, bestIoU = i, iou
			}
		}
		if best >= 0 {
			used[best] = true
			q.TruePositives++
		} else {
			q.FalsePositives++
		}
	}
	for _, u := range used {
		if !u {
			q.FalseNegatives++
		}
	}
	return q
}

func TestEvaluate(t *testing.T) {
	truth := []geom.Rect{
		geom.RectAt(0, 0, 10, 10),
		geom.RectAt(40, 40, 10, 10),
	}
	ds := []Detection{
		{Box: geom.RectAt(1, 1, 10, 10), Score: 0.9},   // matches truth 0
		{Box: geom.RectAt(80, 80, 10, 10), Score: 0.5}, // false positive
	}
	q := Evaluate(ds, truth, 0.5)
	if q.TruePositives != 1 || q.FalsePositives != 1 || q.FalseNegatives != 1 {
		t.Fatalf("quality = %+v", q)
	}
	if q.Precision() != 0.5 || q.Recall() != 0.5 {
		t.Fatalf("P=%v R=%v", q.Precision(), q.Recall())
	}
	if q.F1() != 0.5 {
		t.Fatalf("F1 = %v", q.F1())
	}
	empty := Evaluate(nil, nil, 0.5)
	if empty.Precision() != 0 || empty.Recall() != 0 || empty.F1() != 0 {
		t.Fatal("empty evaluation should be all zeros")
	}
	_ = q.String()
}

func TestEvaluateNoDoubleMatch(t *testing.T) {
	truth := []geom.Rect{geom.RectAt(0, 0, 10, 10)}
	ds := []Detection{
		{Box: geom.RectAt(0, 0, 10, 10), Score: 0.9},
		{Box: geom.RectAt(1, 1, 10, 10), Score: 0.8},
	}
	q := Evaluate(ds, truth, 0.5)
	if q.TruePositives != 1 || q.FalsePositives != 1 {
		t.Fatalf("one truth box can match only once: %+v", q)
	}
}

func TestMedianBackground(t *testing.T) {
	// Background 100 gray; a "pedestrian" blob passes through different
	// positions; the median must recover the background.
	var frames []*img.Image
	for k := 0; k < 9; k++ {
		f := img.NewFilled(20, 20, img.RGB{R: 100, G: 100, B: 100})
		f.Fill(geom.RectAt(2*k, 5, 3, 8), img.RGB{R: 255, G: 0, B: 0})
		frames = append(frames, f)
	}
	bg, err := MedianBackground(frames, 1, obs.Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	diff := bg.DiffCount(img.NewFilled(20, 20, img.RGB{R: 100, G: 100, B: 100}))
	if diff > 8 { // the blob overlaps itself slightly at adjacent offsets
		t.Fatalf("median background has %d wrong pixels", diff)
	}
}

func TestMedianBackgroundValidation(t *testing.T) {
	if _, err := MedianBackground(nil, 1, obs.Runtime{}); err == nil {
		t.Fatal("no frames should fail")
	}
	frames := []*img.Image{img.New(4, 4), img.New(5, 4)}
	if _, err := MedianBackground(frames, 1, obs.Runtime{}); err == nil {
		t.Fatal("size mismatch should fail")
	}
}

func TestBGSubtractorFindsObjects(t *testing.T) {
	bg := img.NewFilled(64, 48, img.RGB{R: 100, G: 100, B: 100})
	frame := bg.Clone()
	truth := []geom.Rect{
		geom.RectAt(10, 10, 6, 12),
		geom.RectAt(40, 20, 6, 12),
	}
	for _, b := range truth {
		frame.Fill(b, img.RGB{R: 230, G: 40, B: 40})
	}
	det := NewBGSubtractor(bg)
	ds, err := det.Detect(frame)
	if err != nil {
		t.Fatal(err)
	}
	q := Evaluate(ds, truth, 0.5)
	if q.TruePositives != 2 || q.FalsePositives != 0 {
		t.Fatalf("quality = %v (detections %v)", q, ds)
	}
}

func TestBGSubtractorIgnoresTinyAndHugeBlobs(t *testing.T) {
	bg := img.NewFilled(64, 48, img.RGB{R: 100, G: 100, B: 100})
	frame := bg.Clone()
	frame.Fill(geom.RectAt(5, 5, 2, 2), img.RGB{R: 255, G: 255, B: 255}) // 4 px < MinArea
	det := NewBGSubtractor(bg)
	ds, err := det.Detect(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 0 {
		t.Fatalf("tiny blob should be ignored: %v", ds)
	}
	// Whole-frame change (illumination) must not become a detection.
	frame2 := img.NewFilled(64, 48, img.RGB{R: 200, G: 200, B: 200})
	ds2, err := det.Detect(frame2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds2) != 0 {
		t.Fatalf("global change should be ignored: %v", ds2)
	}
}

func TestBGSubtractorValidation(t *testing.T) {
	det := &BGSubtractor{}
	if _, err := det.Detect(img.New(4, 4)); err == nil {
		t.Fatal("missing background should fail")
	}
	det2 := NewBGSubtractor(img.New(8, 8))
	if _, err := det2.Detect(img.New(4, 4)); err == nil {
		t.Fatal("size mismatch should fail")
	}
}

func TestBGSubtractorOnGeneratedScene(t *testing.T) {
	p := scene.Preset{
		Name: "det-test", W: 96, H: 72, Frames: 30, Objects: 3,
		FPS: 30, Style: scene.StyleSquare, Class: scene.Pedestrian, Seed: 21,
	}
	g, err := scene.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := MedianBackground(g.Video.Frames, 2, obs.Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	det := NewBGSubtractor(bg)
	totalQ := Quality{}
	for k := 0; k < g.Video.Len(); k += 5 {
		ds, err := det.Detect(g.Video.Frame(k))
		if err != nil {
			t.Fatal(err)
		}
		var truthBoxes []geom.Rect
		for _, tr := range g.Truth.Tracks {
			if b, ok := tr.Box(k); ok {
				truthBoxes = append(truthBoxes, b)
			}
		}
		q := Evaluate(ds, truthBoxes, 0.3)
		totalQ.TruePositives += q.TruePositives
		totalQ.FalsePositives += q.FalsePositives
		totalQ.FalseNegatives += q.FalseNegatives
	}
	if totalQ.Recall() < 0.7 {
		t.Fatalf("recall on synthetic scene too low: %v", totalQ)
	}
}

func TestHOGSVMDetectsSprites(t *testing.T) {
	det, err := NewPedestrianDetector(scene.StyleSquare, 31)
	if err != nil {
		t.Fatal(err)
	}
	// Compose a frame with two pedestrians on the training background style.
	frame := scene.PaintBackground(scene.StyleSquare, 96, 72, 77)
	b1 := scene.DrawObject(frame, scene.Pedestrian, scene.Palette(3), geom.V(30, 40), 0)
	b2 := scene.DrawObject(frame, scene.Pedestrian, scene.Palette(9), geom.V(70, 50), 2)
	ds, err := det.Detect(frame)
	if err != nil {
		t.Fatal(err)
	}
	q := Evaluate(ds, []geom.Rect{b1, b2}, 0.2)
	if q.Recall() < 0.5 {
		t.Fatalf("HOG+SVM should find at least half the sprites: %v (ds=%v)", q, ds)
	}
}

func TestHOGSVMValidation(t *testing.T) {
	d := &HOGSVM{}
	if _, err := d.Detect(img.New(32, 32)); err == nil {
		t.Fatal("missing model should fail")
	}
}

func TestAutoStepSamplesAtLeastNineFrames(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 1}, {1, 1}, {5, 1}, {10, 1}, {39, 1},
		{40, 1}, {80, 2}, {360, 9}, {400, 10}, {1500, 37},
	}
	for _, c := range cases {
		if got := AutoStep(c.n); got != c.want {
			t.Errorf("AutoStep(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	for n := 1; n <= 2000; n++ {
		step := AutoStep(n)
		if step < 1 {
			t.Fatalf("AutoStep(%d) = %d < 1", n, step)
		}
		samples := (n + step - 1) / step
		min := 9
		if n < min {
			min = n
		}
		if samples < min {
			t.Fatalf("AutoStep(%d) = %d samples only %d frames, want >= %d",
				n, step, samples, min)
		}
	}
}

// TestMedianBackgroundShortClip is the 10-frame regression for the
// AutoStep sampling stride: the full stack must feed the median so a moving
// object cannot bake itself into the background model.
func TestMedianBackgroundShortClip(t *testing.T) {
	const w, h, n = 64, 48, 10
	bgColor := img.RGB{R: 30, G: 30, B: 30}
	frames := make([]*img.Image, n)
	for k := range frames {
		f := img.NewFilled(w, h, bgColor)
		// Bright 8x8 object marching right 5px per frame.
		f.Fill(geom.RectAt(2+5*k, 20, 8, 8), img.RGB{R: 220, G: 220, B: 220})
		frames[k] = f
	}
	bg, err := MedianBackground(frames, AutoStep(n), obs.Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	// The object covers each pixel in at most 2 of 10 frames, so a >= 9
	// frame median recovers the clean background everywhere.
	for i, v := range bg.Pix {
		if v != 30 {
			t.Fatalf("background pixel %d = %d, want 30 (object leaked into model)", i, v)
		}
	}
}

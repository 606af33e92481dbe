package track

import (
	"fmt"
	"math"
	"testing"

	"verro/internal/assign"
	"verro/internal/detect"
	"verro/internal/geom"
	"verro/internal/motio"
	"verro/internal/obs"
	"verro/internal/scene"
)

// Quality holds CLEAR-MOT-style tracking metrics computed against ground
// truth: per-frame matches (at an IoU threshold) via min-cost assignment,
// with identity-switch accounting. TestTrackerQualityOnGeneratedScene holds
// the tracker to its MOTA and MOTP.
type Quality struct {
	Frames         int
	TruePositives  int
	FalsePositives int
	Misses         int
	IDSwitches     int
	// IoUSum accumulates the IoU of matched pairs (for MOTP).
	IoUSum float64
}

// MOTA returns the multiple-object-tracking accuracy:
// 1 − (misses + false positives + ID switches) / ground-truth detections.
func (q Quality) MOTA() float64 {
	gt := q.TruePositives + q.Misses
	if gt == 0 {
		return 0
	}
	return 1 - float64(q.Misses+q.FalsePositives+q.IDSwitches)/float64(gt)
}

// MOTP returns the mean IoU of matched pairs (higher is better; the CLEAR
// definition uses distance, the IoU variant is standard for boxes).
func (q Quality) MOTP() float64 {
	if q.TruePositives == 0 {
		return 0
	}
	return q.IoUSum / float64(q.TruePositives)
}

func (q Quality) String() string {
	return fmt.Sprintf("MOTA=%.3f MOTP=%.3f (tp=%d fp=%d miss=%d idsw=%d)",
		q.MOTA(), q.MOTP(), q.TruePositives, q.FalsePositives, q.Misses, q.IDSwitches)
}

// EvaluateTracks scores hypothesis tracks against ground truth over frames
// [0, numFrames) at the given IoU threshold.
func EvaluateTracks(truth, hypo *motio.TrackSet, numFrames int, iouThreshold float64) Quality {
	q := Quality{Frames: numFrames}
	// lastMatch remembers which hypothesis ID each ground-truth ID was
	// last matched to, for ID-switch counting.
	lastMatch := map[int]int{}

	for k := 0; k < numFrames; k++ {
		var gtIDs []int
		var gtBoxes []geom.Rect
		for _, t := range truth.Tracks {
			if b, ok := t.Box(k); ok {
				gtIDs = append(gtIDs, t.ID)
				gtBoxes = append(gtBoxes, b)
			}
		}
		var hIDs []int
		var hBoxes []geom.Rect
		for _, t := range hypo.Tracks {
			if b, ok := t.Box(k); ok {
				hIDs = append(hIDs, t.ID)
				hBoxes = append(hBoxes, b)
			}
		}
		if len(gtBoxes) == 0 {
			q.FalsePositives += len(hBoxes)
			continue
		}
		if len(hBoxes) == 0 {
			q.Misses += len(gtBoxes)
			continue
		}
		cost := make([][]float64, len(gtBoxes))
		for i := range gtBoxes {
			cost[i] = make([]float64, len(hBoxes))
			for j := range hBoxes {
				cost[i][j] = 1 - geom.IoU(gtBoxes[i], hBoxes[j])
			}
		}
		rowToCol, _, err := assign.Solve(cost)
		if err != nil {
			// Finite costs: cannot happen; treat everything as missed.
			q.Misses += len(gtBoxes)
			q.FalsePositives += len(hBoxes)
			continue
		}
		usedHypo := make([]bool, len(hBoxes))
		for i, j := range rowToCol {
			iou := 0.0
			if j >= 0 {
				iou = geom.IoU(gtBoxes[i], hBoxes[j])
			}
			if j < 0 || iou < iouThreshold {
				q.Misses++
				continue
			}
			usedHypo[j] = true
			q.TruePositives++
			q.IoUSum += iou
			if prev, ok := lastMatch[gtIDs[i]]; ok && prev != hIDs[j] {
				q.IDSwitches++
			}
			lastMatch[gtIDs[i]] = hIDs[j]
		}
		for _, used := range usedHypo {
			if !used {
				q.FalsePositives++
			}
		}
	}
	return q
}

func lineTrack(id, start, n, x0, step int) *motio.Track {
	t := motio.NewTrack(id, "pedestrian")
	for k := 0; k < n; k++ {
		t.Set(start+k, geom.RectAt(x0+step*k, 20, 8, 16))
	}
	return t
}

func TestEvaluateTracksPerfect(t *testing.T) {
	truth := motio.NewTrackSet()
	truth.Add(lineTrack(1, 0, 10, 5, 3))
	hypo := motio.NewTrackSet()
	hypo.Add(lineTrack(7, 0, 10, 5, 3)) // same boxes, different ID
	q := EvaluateTracks(truth, hypo, 10, 0.5)
	if q.MOTA() != 1 {
		t.Fatalf("perfect tracking MOTA = %v (%v)", q.MOTA(), q)
	}
	if math.Abs(q.MOTP()-1) > 1e-9 {
		t.Fatalf("perfect tracking MOTP = %v", q.MOTP())
	}
	if q.IDSwitches != 0 {
		t.Fatalf("no switches expected: %v", q)
	}
}

func TestEvaluateTracksMissesAndFalsePositives(t *testing.T) {
	truth := motio.NewTrackSet()
	truth.Add(lineTrack(1, 0, 10, 5, 3))
	// Hypothesis covers only the first 5 frames, plus a spurious track.
	hypo := motio.NewTrackSet()
	hypo.Add(lineTrack(2, 0, 5, 5, 3))
	hypo.Add(lineTrack(3, 0, 10, 200, 0)) // far away: all false positives
	q := EvaluateTracks(truth, hypo, 10, 0.5)
	if q.Misses != 5 {
		t.Fatalf("misses = %d, want 5", q.Misses)
	}
	if q.FalsePositives != 10 {
		t.Fatalf("false positives = %d, want 10", q.FalsePositives)
	}
	if q.MOTA() >= 1 {
		t.Fatalf("MOTA should be penalized: %v", q)
	}
	_ = q.String()
}

func TestEvaluateTracksIDSwitch(t *testing.T) {
	truth := motio.NewTrackSet()
	truth.Add(lineTrack(1, 0, 10, 5, 3))
	// The hypothesis changes identity halfway.
	hypo := motio.NewTrackSet()
	hypo.Add(lineTrack(10, 0, 5, 5, 3))
	second := lineTrack(11, 5, 5, 5+5*3, 3)
	hypo.Add(second)
	q := EvaluateTracks(truth, hypo, 10, 0.5)
	if q.IDSwitches != 1 {
		t.Fatalf("ID switches = %d, want 1 (%v)", q.IDSwitches, q)
	}
	if q.TruePositives != 10 {
		t.Fatalf("tp = %d", q.TruePositives)
	}
}

func TestEvaluateTracksEmptyCases(t *testing.T) {
	empty := motio.NewTrackSet()
	q := EvaluateTracks(empty, empty, 10, 0.5)
	if q.MOTA() != 0 || q.MOTP() != 0 {
		t.Fatalf("empty evaluation: %v", q)
	}
	truth := motio.NewTrackSet()
	truth.Add(lineTrack(1, 0, 5, 5, 3))
	q2 := EvaluateTracks(truth, empty, 5, 0.5)
	if q2.Misses != 5 || q2.MOTA() != 0 {
		t.Fatalf("all-missed: %v", q2)
	}
}

func TestTrackerQualityOnGeneratedScene(t *testing.T) {
	p := scene.Preset{
		Name: "mota-test", W: 128, H: 96, Frames: 50, Objects: 4,
		FPS: 30, Style: scene.StyleSquare, Class: scene.Pedestrian, Seed: 151,
	}
	g, err := scene.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := detect.MedianBackground(g.Video.Frames, 2, obs.Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	hypo, err := Run(g.Video.Frames, detect.NewBGSubtractor(bg), DefaultConfig(), obs.Runtime{})
	if err != nil {
		t.Fatal(err)
	}
	q := EvaluateTracks(g.Truth, hypo, g.Video.Len(), 0.3)
	if q.MOTA() < 0.3 {
		t.Fatalf("tracker MOTA too low on a clean synthetic scene: %v", q)
	}
	if q.MOTP() < 0.4 {
		t.Fatalf("tracker MOTP too low: %v", q)
	}
}

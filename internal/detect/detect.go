// Package detect implements the object detectors used in VERRO's
// preprocessing: a sliding-window HOG+SVM detector (the paper's pedestrian
// detector family [51]) and a fast background-subtraction detector for
// static cameras, plus non-maximum suppression and detection-quality
// metrics.
package detect

import (
	"fmt"
	"sort"

	"verro/internal/geom"
	"verro/internal/img"
)

// Detection is one candidate object in one frame.
type Detection struct {
	Box   geom.Rect
	Score float64
}

// sortByScore sorts detections by descending score. The sort is stable,
// so detections with equal scores keep the order the detector found them
// in, and which of two overlapping ones survives NMS does not depend on
// the sort algorithm.
func sortByScore(ds []Detection) {
	sort.SliceStable(ds, func(i, j int) bool { return ds[i].Score > ds[j].Score })
}

// NMS performs greedy non-maximum suppression: detections are accepted in
// descending score order, and any remaining detection overlapping an
// accepted one with IoU above threshold is discarded.
func NMS(ds []Detection, iouThreshold float64) []Detection {
	if len(ds) == 0 {
		return nil
	}
	sorted := append([]Detection(nil), ds...)
	sortByScore(sorted)
	var kept []Detection
	for _, d := range sorted {
		ok := true
		for _, k := range kept {
			if geom.IoU(d.Box, k.Box) > iouThreshold {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, d)
		}
	}
	return kept
}

// Detector produces detections for a frame.
type Detector interface {
	Detect(frame *img.Image) ([]Detection, error)
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
// IoU threshold and tallies quality counters.
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

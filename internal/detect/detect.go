// Package detect implements the object detectors used in VERRO's
// preprocessing: a sliding-window HOG+SVM detector (the paper's pedestrian
// detector family [51]) and a fast background-subtraction detector for
// static cameras, plus non-maximum suppression.
package detect

import (
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

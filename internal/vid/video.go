// Package vid implements the video substrate: an in-memory frame-sequence
// container and a compact binary codec (.vvf) used to persist the synthetic
// benchmark videos and the sanitized outputs, including the bandwidth
// accounting the paper reports in Table 3.
package vid

import (
	"fmt"

	"verro/internal/img"
)

// Video is an in-memory sequence of equally sized frames plus the metadata
// the pipeline needs.
type Video struct {
	Name   string
	W, H   int
	FPS    float64
	Moving bool // true when recorded by a moving camera (MOT06-style)
	Frames []*img.Image
}

// New returns an empty video shell with the given geometry.
func New(name string, w, h int, fps float64) *Video {
	return &Video{Name: name, W: w, H: h, FPS: fps}
}

// Len returns the number of frames.
func (v *Video) Len() int { return len(v.Frames) }

// Append adds a frame, validating its dimensions.
func (v *Video) Append(f *img.Image) error {
	if f.W != v.W || f.H != v.H {
		return fmt.Errorf("vid: frame %dx%d does not match video %dx%d", f.W, f.H, v.W, v.H)
	}
	v.Frames = append(v.Frames, f)
	return nil
}

// Frame returns frame k; it panics on out-of-range access, which is always
// a programming error in this codebase.
func (v *Video) Frame(k int) *img.Image {
	if k < 0 || k >= len(v.Frames) {
		panic(fmt.Sprintf("vid: frame %d out of range [0,%d)", k, len(v.Frames)))
	}
	return v.Frames[k]
}

func (v *Video) String() string {
	return fmt.Sprintf("%s: %dx%d, %d frames @ %.3g fps", v.Name, v.W, v.H, len(v.Frames), v.FPS)
}

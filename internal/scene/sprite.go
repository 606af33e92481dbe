// Package scene generates the synthetic benchmark videos that stand in for
// the paper's three MOT16 sequences: textured street/square backgrounds with
// sprite pedestrians (and vehicles) moving along realistic trajectories,
// together with exact ground-truth tracks. See DESIGN.md for why this
// substitution preserves the behaviour VERRO's evaluation depends on.
package scene

import (
	"math"

	"verro/internal/geom"
	"verro/internal/img"
)

// spriteKey is the transparent color key used when compositing sprites.
var spriteKey = img.RGB{R: 255, G: 0, B: 255}

// ObjectClass selects the sprite family.
type ObjectClass int

// Supported object classes.
const (
	Pedestrian ObjectClass = iota
	Vehicle
)

func (c ObjectClass) String() string {
	switch c {
	case Pedestrian:
		return "pedestrian"
	case Vehicle:
		return "vehicle"
	default:
		return "object"
	}
}

// SpriteSize returns the rendered sprite dimensions for an object of the
// given class at depth scale s (1 = nominal). Pedestrians are tall boxes,
// vehicles wide ones.
func SpriteSize(class ObjectClass, s float64) (w, h int) {
	switch class {
	case Vehicle:
		w = int(math.Round(26 * s))
		h = int(math.Round(12 * s))
	default:
		w = int(math.Round(8 * s))
		h = int(math.Round(20 * s))
	}
	if w < 3 {
		w = 3
	}
	if h < 5 {
		h = 5
	}
	return w, h
}

// DepthScale implements the perspective cue the paper mentions (objects are
// drawn larger when closer to the camera): scale grows linearly from 0.6 at
// the top of the frame to 1.4 at the bottom.
func DepthScale(cy float64, frameH int) float64 {
	if frameH <= 1 {
		return 1
	}
	t := geom.ClampF(cy/float64(frameH-1), 0, 1)
	return 0.6 + 0.8*t
}

// RenderSprite draws an object of the given class, color and phase into a
// fresh sprite image with transparent (color-key) background. phase drives
// the walking-leg animation for pedestrians.
func RenderSprite(class ObjectClass, c img.RGB, w, h int, phase float64) *img.Image {
	sp := img.NewFilled(w, h, spriteKey)
	switch class {
	case Vehicle:
		renderVehicle(sp, c)
	default:
		renderPedestrian(sp, c, phase)
	}
	return sp
}

func renderPedestrian(sp *img.Image, c img.RGB, phase float64) {
	w, h := sp.W, sp.H
	headR := h / 6
	if headR < 1 {
		headR = 1
	}
	headC := geom.Pt(w/2, headR)
	skin := img.RGB{R: 224, G: 188, B: 154}
	sp.DrawDisc(headC, headR, skin)

	// Torso.
	torsoTop := 2 * headR
	torsoBot := h * 6 / 10
	sp.Fill(geom.R(w/5, torsoTop, w-w/5, torsoBot), c)

	// Legs: two strips whose separation oscillates with the walk phase.
	legC := img.RGB{R: c.R / 2, G: c.G / 2, B: c.B / 2}
	swing := int(math.Round(float64(w) / 4 * math.Sin(phase)))
	legW := maxInt(w/5, 1)
	leftX := w/2 - legW - swing/2
	rightX := w/2 + swing/2
	sp.Fill(geom.R(leftX, torsoBot, leftX+legW, h), legC)
	sp.Fill(geom.R(rightX, torsoBot, rightX+legW, h), legC)
}

func renderVehicle(sp *img.Image, c img.RGB) {
	w, h := sp.W, sp.H
	// Body with a cabin on top.
	sp.Fill(geom.R(0, h/3, w, h*5/6), c)
	cabin := img.RGB{R: c.R / 2, G: c.G / 2, B: c.B / 2}
	sp.Fill(geom.R(w/5, 0, w*4/5, h/3+1), cabin)
	// Windows.
	sp.Fill(geom.R(w/4, h/12, w*3/4, h/3), img.RGB{R: 170, G: 210, B: 235})
	// Wheels.
	wheel := img.RGB{R: 25, G: 25, B: 25}
	r := maxInt(h/6, 1)
	sp.DrawDisc(geom.Pt(w/5, h-r), r, wheel)
	sp.DrawDisc(geom.Pt(w*4/5, h-r), r, wheel)
}

// Palette returns a deterministic, visually distinct color for synthetic
// object index i — VERRO replaces every original object with a synthetic
// one of the same shape and a distinct color (paper Section 2.2.2).
func Palette(i int) img.RGB {
	// Golden-angle hue stepping gives well-spread hues for any count.
	hue := math.Mod(float64(i)*137.50776405, 360)
	sat := 0.75
	val := 0.9
	if i%3 == 1 {
		val = 0.65
	}
	if i%3 == 2 {
		sat = 0.95
	}
	return img.FromHSV(img.HSV{H: hue, S: sat, V: val})
}

// ObjectBox returns the box an object of the given class covers at center
// position pos in a frame frameH rows tall, scaled by the perspective depth
// cue: the box DrawObject draws into, computed without drawing.
func ObjectBox(class ObjectClass, pos geom.Vec, frameH int) geom.Rect {
	w, h := SpriteSize(class, DepthScale(pos.Y, frameH))
	c := pos.Round()
	return geom.RectAt(c.X-w/2, c.Y-h/2, w, h)
}

// DrawObject composites an object of the given class and color at center
// position pos into frame, into the box ObjectBox gives, and returns that
// box as the ground truth actually covered.
func DrawObject(frame *img.Image, class ObjectClass, color img.RGB, pos geom.Vec, phase float64) geom.Rect {
	box := ObjectBox(class, pos, frame.H)
	sp := RenderSprite(class, color, box.Dx(), box.Dy(), phase)
	frame.BlitMasked(sp, box.Min, spriteKey)
	return box
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

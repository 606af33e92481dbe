// Package geom provides the small geometric vocabulary shared by the video,
// detection, tracking and sanitization packages: integer points and
// rectangles, floating-point vectors, and the box overlap measures
// (intersection-over-union and friends) used throughout VERRO.
package geom

import (
	"fmt"
	"math"
)

// Point is an integer pixel coordinate. The origin is the top-left corner of
// a frame; x grows rightwards and y grows downwards.
type Point struct {
	X, Y int
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y int) Point { return Point{x, y} }

// Sub returns p−q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// In reports whether p lies inside r (half-open on the max edges).
func (p Point) In(r Rect) bool {
	return p.X >= r.Min.X && p.X < r.Max.X && p.Y >= r.Min.Y && p.Y < r.Max.Y
}

func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Vec is a floating-point 2-vector, used for sub-pixel object centers and
// trajectory samples.
type Vec struct {
	X, Y float64
}

// V is shorthand for Vec{x, y}.
func V(x, y float64) Vec { return Vec{x, y} }

// Add returns v+w.
func (v Vec) Add(w Vec) Vec { return Vec{v.X + w.X, v.Y + w.Y} }

// Sub returns v−w.
func (v Vec) Sub(w Vec) Vec { return Vec{v.X - w.X, v.Y - w.Y} }

// Scale returns v scaled by s.
func (v Vec) Scale(s float64) Vec { return Vec{v.X * s, v.Y * s} }

// Dot returns the dot product v·w.
func (v Vec) Dot(w Vec) float64 { return v.X*w.X + v.Y*w.Y }

// Norm returns the Euclidean length of v.
func (v Vec) Norm() float64 { return math.Hypot(v.X, v.Y) }

// Dist returns the Euclidean distance between v and w.
func (v Vec) Dist(w Vec) float64 { return v.Sub(w).Norm() }

// Lerp linearly interpolates between v (t=0) and w (t=1).
func (v Vec) Lerp(w Vec, t float64) Vec {
	return Vec{v.X + (w.X-v.X)*t, v.Y + (w.Y-v.Y)*t}
}

// Round converts v to the nearest integer Point.
func (v Vec) Round() Point {
	return Point{int(math.Round(v.X)), int(math.Round(v.Y))}
}

// Rect is an axis-aligned integer rectangle, half-open: it contains points
// with Min.X <= x < Max.X and Min.Y <= y < Max.Y, matching image.Rectangle
// conventions.
type Rect struct {
	Min, Max Point
}

// R returns the rectangle with corners (x0,y0) and (x1,y1), normalized so
// Min is the top-left corner.
func R(x0, y0, x1, y1 int) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{Point{x0, y0}, Point{x1, y1}}
}

// RectAt returns a w×h rectangle whose top-left corner is (x, y).
func RectAt(x, y, w, h int) Rect { return Rect{Point{x, y}, Point{x + w, y + h}} }

// CenteredRect returns a w×h rectangle centered (as closely as integer
// coordinates allow) on c.
func CenteredRect(c Point, w, h int) Rect {
	return RectAt(c.X-w/2, c.Y-h/2, w, h)
}

// Dx returns the width of r.
func (r Rect) Dx() int { return r.Max.X - r.Min.X }

// Dy returns the height of r.
func (r Rect) Dy() int { return r.Max.Y - r.Min.Y }

// Area returns the number of integer points in r; degenerate rectangles
// have zero area.
func (r Rect) Area() int {
	if r.Empty() {
		return 0
	}
	return r.Dx() * r.Dy()
}

// Empty reports whether r contains no points.
func (r Rect) Empty() bool { return r.Min.X >= r.Max.X || r.Min.Y >= r.Max.Y }

// Center returns the (floored) center point of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// CenterVec returns the exact center of r.
func (r Rect) CenterVec() Vec {
	return Vec{float64(r.Min.X+r.Max.X) / 2, float64(r.Min.Y+r.Max.Y) / 2}
}

// Intersect returns the largest rectangle contained in both r and s. If the
// two do not overlap, the result is empty.
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		Point{max(r.Min.X, s.Min.X), max(r.Min.Y, s.Min.Y)},
		Point{min(r.Max.X, s.Max.X), min(r.Max.Y, s.Max.Y)},
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Contains reports whether s lies entirely within r.
func (r Rect) Contains(s Rect) bool {
	if s.Empty() {
		return true
	}
	return r.Min.X <= s.Min.X && r.Min.Y <= s.Min.Y &&
		r.Max.X >= s.Max.X && r.Max.Y >= s.Max.Y
}

// Clip returns r clipped to bounds.
func (r Rect) Clip(bounds Rect) Rect { return r.Intersect(bounds) }

func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d;%d,%d]", r.Min.X, r.Min.Y, r.Max.X, r.Max.Y)
}

// IoU returns the intersection-over-union of r and s in [0, 1]. Two empty
// rectangles have IoU 0.
func IoU(r, s Rect) float64 {
	inter := r.Intersect(s).Area()
	if inter == 0 {
		return 0
	}
	union := r.Area() + s.Area() - inter
	return float64(inter) / float64(union)
}

// Polyline is an ordered sequence of floating-point positions, one per frame
// index; it is the representation of an object trajectory.
type Polyline []Vec

// Length returns the total arc length of the polyline.
func (p Polyline) Length() float64 {
	var total float64
	for i := 1; i < len(p); i++ {
		total += p[i].Dist(p[i-1])
	}
	return total
}

// Clamp returns x restricted to [lo, hi].
func Clamp(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// ClampF returns x restricted to [lo, hi].
func ClampF(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

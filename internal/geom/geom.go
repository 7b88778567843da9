// Package geom provides the 2-D primitives used by the simulated Android
// UI: points, rectangles, hit testing and density-independent-pixel
// conversion. Coordinates follow Android's convention — the origin is the
// top-left corner of the screen, x grows right and y grows down.
package geom

import (
	"fmt"
	"math"
)

// Point is a screen position in pixels.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{X: p.X + q.X, Y: p.Y + q.Y} }

// Sub returns p minus q.
func (p Point) Sub(q Point) Point { return Point{X: p.X - q.X, Y: p.Y - q.Y} }

// Dist reports the Euclidean distance between p and q. The password
// inference step of the attack (Section V) picks the key whose center
// minimizes this distance.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// String renders the point for diagnostics.
func (p Point) String() string { return fmt.Sprintf("(%.1f,%.1f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle. Min is the top-left corner and Max the
// bottom-right; a Rect is well-formed when Min.X <= Max.X and
// Min.Y <= Max.Y.
type Rect struct {
	Min, Max Point
}

// RectWH builds a rectangle from a top-left corner and a width/height.
func RectWH(x, y, w, h float64) Rect {
	return Rect{Min: Pt(x, y), Max: Pt(x+w, y+h)}
}

// W reports the rectangle width.
func (r Rect) W() float64 { return r.Max.X - r.Min.X }

// H reports the rectangle height.
func (r Rect) H() float64 { return r.Max.Y - r.Min.Y }

// Empty reports whether the rectangle encloses no area.
func (r Rect) Empty() bool { return r.Min.X >= r.Max.X || r.Min.Y >= r.Max.Y }

// Center reports the rectangle's center point.
func (r Rect) Center() Point {
	return Pt((r.Min.X+r.Max.X)/2, (r.Min.Y+r.Max.Y)/2)
}

// Contains reports whether p lies inside r. Android treats the top and left
// edges as inside and the bottom and right edges as outside, matching pixel
// hit-testing.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X < r.Max.X && p.Y >= r.Min.Y && p.Y < r.Max.Y
}

// Intersects reports whether r and s share any area.
func (r Rect) Intersects(s Rect) bool {
	if r.Empty() || s.Empty() {
		return false
	}
	return r.Min.X < s.Max.X && s.Min.X < r.Max.X && r.Min.Y < s.Max.Y && s.Min.Y < r.Max.Y
}

// Inset returns r shrunk by m on every side. Insetting past the center
// yields an empty rectangle.
func (r Rect) Inset(m float64) Rect {
	out := Rect{Min: Pt(r.Min.X+m, r.Min.Y+m), Max: Pt(r.Max.X-m, r.Max.Y-m)}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Covers reports whether r fully contains s.
func (r Rect) Covers(s Rect) bool {
	if s.Empty() {
		return true
	}
	return r.Min.X <= s.Min.X && r.Min.Y <= s.Min.Y && r.Max.X >= s.Max.X && r.Max.Y >= s.Max.Y
}

// String renders the rect for diagnostics.
func (r Rect) String() string {
	return fmt.Sprintf("[%.1f,%.1f %.1fx%.1f]", r.Min.X, r.Min.Y, r.W(), r.H())
}

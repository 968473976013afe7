// Package geom provides the small amount of 2-D geometry the wireless
// substrate needs: node positions, distances, and movement along headings.
package geom

import (
	"fmt"
	"math"
)

// Point is a position in the 2-D simulation field, in meters.
type Point struct {
	X, Y float64
}

// String formats the point with centimeter precision.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vec { return Vec{p.X - q.X, p.Y - q.Y} }

// Add offsets the point by v.
func (p Point) Add(v Vec) Point { return Point{p.X + v.X, p.Y + v.Y} }

// Dist2 returns the squared distance, avoiding the square root when only
// comparisons are needed (e.g. range checks on every slot).
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Vec is a displacement in meters.
type Vec struct {
	X, Y float64
}

// Len returns the vector's magnitude.
func (v Vec) Len() float64 { return math.Hypot(v.X, v.Y) }

// Scale multiplies the vector by s.
func (v Vec) Scale(s float64) Vec { return Vec{v.X * s, v.Y * s} }

// Unit returns the unit vector in v's direction. The zero vector maps to
// the zero vector.
func (v Vec) Unit() Vec {
	l := v.Len()
	if l == 0 {
		return Vec{}
	}
	return Vec{v.X / l, v.Y / l}
}

// Rect is an axis-aligned rectangle, the boundary of the simulation field.
type Rect struct {
	Min, Max Point
}

// Square returns a side×side field anchored at the origin.
func Square(side float64) Rect {
	return Rect{Min: Point{0, 0}, Max: Point{side, side}}
}

// Width returns the horizontal extent of the field.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of the field.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Clamp returns the nearest point to p inside the rectangle.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Max(r.Min.X, math.Min(r.Max.X, p.X)),
		Y: math.Max(r.Min.Y, math.Min(r.Max.Y, p.Y)),
	}
}

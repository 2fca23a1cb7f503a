// Package geom provides the 2-D geometry primitives used by the ad-hoc
// network model: points, distances, displacement vectors, and the
// rectangular arena the paper's simulations run in (100 x 100 units).
package geom

import (
	"fmt"
	"math"
)

// Point is a position in the 2-D plane.
type Point struct {
	X, Y float64
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y)
}

// DistanceSqTo returns the squared Euclidean distance between p and q.
// It avoids the square root for range comparisons.
func (p Point) DistanceSqTo(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Add returns p translated by the vector v.
func (p Point) Add(v Vector) Point {
	return Point{p.X + v.DX, p.Y + v.DY}
}

// Vector is a displacement in the 2-D plane.
type Vector struct {
	DX, DY float64
}

// Polar returns the displacement of the given length in the given
// direction (radians, counterclockwise from the positive X axis).
func Polar(length, angle float64) Vector {
	return Vector{length * math.Cos(angle), length * math.Sin(angle)}
}

// Rect is an axis-aligned rectangle, used as the simulation arena.
type Rect struct {
	Min, Max Point
}

// Arena returns the paper's simulation arena: a w x h rectangle anchored
// at the origin.
func Arena(w, h float64) Rect {
	return Rect{Min: Point{0, 0}, Max: Point{w, h}}
}

// Clamp returns p moved to the nearest point inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		Y: math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}

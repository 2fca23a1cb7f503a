package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDistanceTo(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 5}, 4},
		{Point{-3, -4}, Point{0, 0}, 5},
		{Point{2.5, 0}, Point{-2.5, 0}, 5},
	}
	for _, c := range cases {
		if got := c.p.DistanceTo(c.q); !almostEqual(got, c.want) {
			t.Errorf("DistanceTo(%v, %v) = %g, want %g", c.p, c.q, got, c.want)
		}
	}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e9)
		}
		p, q := Point{clamp(ax), clamp(ay)}, Point{clamp(bx), clamp(by)}
		return almostEqual(p.DistanceTo(q), q.DistanceTo(p))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceSqMatchesDistance(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		// Clamp magnitudes to avoid overflow to +Inf under squaring.
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e6)
		}
		p := Point{clamp(ax), clamp(ay)}
		q := Point{clamp(bx), clamp(by)}
		d := p.DistanceTo(q)
		return math.Abs(p.DistanceSqTo(q)-d*d) <= 1e-6*(1+d*d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e6)
		}
		a := Point{clamp(ax), clamp(ay)}
		b := Point{clamp(bx), clamp(by)}
		c := Point{clamp(cx), clamp(cy)}
		return a.DistanceTo(c) <= a.DistanceTo(b)+b.DistanceTo(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddSub(t *testing.T) {
	p := Point{1, 2}
	v := Vector{3, -1}
	q := p.Add(v)
	if q != (Point{4, 1}) {
		t.Fatalf("Add = %v, want (4,1)", q)
	}
	back := q.Sub(p)
	if !almostEqual(back.DX, v.DX) || !almostEqual(back.DY, v.DY) {
		t.Fatalf("Sub = %v, want %v", back, v)
	}
}

func TestPolar(t *testing.T) {
	v := Polar(2, 0)
	if !almostEqual(v.DX, 2) || !almostEqual(v.DY, 0) {
		t.Errorf("Polar(2,0) = %v", v)
	}
	v = Polar(2, math.Pi/2)
	if !almostEqual(v.DX, 0) || !almostEqual(v.DY, 2) {
		t.Errorf("Polar(2,pi/2) = %v", v)
	}
	if !almostEqual(Polar(3.5, 1.234).Length(), 3.5) {
		t.Errorf("Polar length mismatch")
	}
}

func TestVectorScale(t *testing.T) {
	v := Vector{1, -2}.Scale(-3)
	if v != (Vector{-3, 6}) {
		t.Fatalf("Scale = %v", v)
	}
}

func TestArenaContainsClamp(t *testing.T) {
	r := Arena(100, 100)
	if r.Width() != 100 || r.Height() != 100 {
		t.Fatalf("Arena dims = %g x %g", r.Width(), r.Height())
	}
	inside := []Point{{0, 0}, {100, 100}, {50, 50}, {0, 100}}
	for _, p := range inside {
		if !r.Contains(p) {
			t.Errorf("Contains(%v) = false, want true", p)
		}
	}
	outside := []Point{{-1, 0}, {0, -1}, {101, 50}, {50, 100.5}}
	for _, p := range outside {
		if r.Contains(p) {
			t.Errorf("Contains(%v) = true, want false", p)
		}
	}
	for _, p := range append(inside, outside...) {
		c := r.Clamp(p)
		if !r.Contains(c) {
			t.Errorf("Clamp(%v) = %v not contained", p, c)
		}
	}
	if got := r.Clamp(Point{-5, 120}); got != (Point{0, 100}) {
		t.Errorf("Clamp(-5,120) = %v, want (0,100)", got)
	}
}

func TestClampIdempotent(t *testing.T) {
	r := Arena(100, 100)
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		c := r.Clamp(Point{x, y})
		return r.Clamp(c) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiagonal(t *testing.T) {
	if d := Arena(3, 4).Diagonal(); !almostEqual(d, 5) {
		t.Fatalf("Diagonal = %g, want 5", d)
	}
}

func TestPointString(t *testing.T) {
	if s := (Point{1, 2}).String(); s != "(1.000, 2.000)" {
		t.Fatalf("String = %q", s)
	}
}

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vector {
	return Vector{p.X - q.X, p.Y - q.Y}
}

// Length returns the Euclidean length of v.
func (v Vector) Length() float64 {
	return math.Hypot(v.DX, v.DY)
}

// Scale returns v scaled by s.
func (v Vector) Scale(s float64) Vector {
	return Vector{v.DX * s, v.DY * s}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Contains reports whether p lies inside r (inclusive of the border).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Diagonal returns the length of r's diagonal, an upper bound on any
// distance between two points inside r.
func (r Rect) Diagonal() float64 {
	return r.Min.DistanceTo(r.Max)
}

// DistanceTo returns the Euclidean distance between p and q.
func (p Point) DistanceTo(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

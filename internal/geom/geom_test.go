package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	a := Point{0, 0}
	b := Point{3, 4}
	if d2 := a.Dist2(b); d2 != 25 {
		t.Fatalf("Dist2 = %v, want 25", d2)
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	bound := func(v float64) float64 {
		if v != v { // NaN
			return 0
		}
		return math.Mod(v, 1e6)
	}
	f := func(ax, ay, bx, by float64) bool {
		a := Point{bound(ax), bound(ay)}
		b := Point{bound(bx), bound(by)}
		return a.Dist2(b) == b.Dist2(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVec(t *testing.T) {
	v := Vec{3, 4}
	if v.Len() != 5 {
		t.Fatalf("Len = %v", v.Len())
	}
	s := v.Scale(2)
	if s.X != 6 || s.Y != 8 {
		t.Fatalf("Scale = %v", s)
	}
}

func TestSubAdd(t *testing.T) {
	a, b := Point{1, 2}, Point{4, 6}
	v := b.Sub(a)
	if v != (Vec{3, 4}) {
		t.Fatalf("Sub = %v", v)
	}
	if a.Add(v) != b {
		t.Fatal("Add(Sub) should round-trip")
	}
}

func TestRect(t *testing.T) {
	r := Square(10)
	if r.Width() != 10 || r.Height() != 10 {
		t.Fatalf("square dims: %v x %v", r.Width(), r.Height())
	}
	// Clamp fixes exactly the points of the closed rectangle.
	for _, p := range []Point{{5, 5}, {0, 0}, {10, 10}} {
		if r.Clamp(p) != p {
			t.Fatalf("Clamp moved %v, inside the field", p)
		}
	}
	if p := (Point{10.001, 5}); r.Clamp(p) == p {
		t.Fatal("Clamp kept an exterior point")
	}
}

func TestClampProperty(t *testing.T) {
	r := Square(100)
	f := func(x, y float64) bool {
		p := r.Clamp(Point{x, y})
		return p.X >= 0 && p.X <= 100 && p.Y >= 0 && p.Y <= 100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClampIdempotentOnInterior(t *testing.T) {
	r := Square(100)
	p := Point{42, 17}
	if r.Clamp(p) != p {
		t.Fatal("Clamp moved an interior point")
	}
}

func TestPointString(t *testing.T) {
	if s := (Point{1.234, 5.678}).String(); s != "(1.23, 5.68)" {
		t.Fatalf("String = %q", s)
	}
}

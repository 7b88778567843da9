package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p := Pt(3, 4).Add(Pt(1, -2))
	if p != Pt(4, 2) {
		t.Fatalf("Add = %v, want (4,2)", p)
	}
	q := Pt(3, 4).Sub(Pt(1, 1))
	if q != Pt(2, 3) {
		t.Fatalf("Sub = %v, want (2,3)", q)
	}
}

func TestDist(t *testing.T) {
	tests := []struct {
		p, q Point
		want float64
	}{
		{Pt(0, 0), Pt(3, 4), 5},
		{Pt(1, 1), Pt(1, 1), 0},
		{Pt(-1, 0), Pt(1, 0), 2},
	}
	for _, tt := range tests {
		if got := tt.p.Dist(tt.q); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Dist(%v,%v) = %v, want %v", tt.p, tt.q, got, tt.want)
		}
	}
}

func TestRectWH(t *testing.T) {
	r := RectWH(10, 20, 100, 50)
	if r.W() != 100 || r.H() != 50 {
		t.Fatalf("W,H = %v,%v, want 100,50", r.W(), r.H())
	}
	if got := r.Center(); got != Pt(60, 45) {
		t.Fatalf("Center = %v, want (60,45)", got)
	}
}

func TestContainsEdges(t *testing.T) {
	r := RectWH(0, 0, 10, 10)
	tests := []struct {
		p    Point
		want bool
	}{
		{Pt(0, 0), true},    // top-left inclusive
		{Pt(10, 10), false}, // bottom-right exclusive
		{Pt(9.999, 9.999), true},
		{Pt(5, 5), true},
		{Pt(-0.001, 5), false},
		{Pt(5, 10), false},
	}
	for _, tt := range tests {
		if got := r.Contains(tt.p); got != tt.want {
			t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestEmpty(t *testing.T) {
	if RectWH(0, 0, 10, 10).Empty() {
		t.Fatal("non-degenerate rect reported Empty")
	}
	if !RectWH(0, 0, 0, 10).Empty() {
		t.Fatal("zero-width rect not Empty")
	}
	if !(Rect{Min: Pt(5, 5), Max: Pt(1, 1)}).Empty() {
		t.Fatal("inverted rect not Empty")
	}
}

func TestIntersection(t *testing.T) {
	a := RectWH(0, 0, 10, 10)
	b := RectWH(5, 5, 10, 10)
	if !a.Intersects(b) {
		t.Fatal("overlapping rects reported disjoint")
	}
	c := RectWH(20, 20, 5, 5)
	if a.Intersects(c) {
		t.Fatal("disjoint rects reported intersecting")
	}
	// Touching edges do not intersect.
	d := RectWH(10, 0, 5, 10)
	if a.Intersects(d) {
		t.Fatal("edge-touching rects reported intersecting")
	}
}

func TestTranslateAndInset(t *testing.T) {
	in := RectWH(0, 0, 10, 10).Inset(2)
	if in != RectWH(2, 2, 6, 6) {
		t.Fatalf("Inset = %v, want [2,2 6x6]", in)
	}
	if !RectWH(0, 0, 10, 10).Inset(6).Empty() {
		t.Fatal("over-inset rect not empty")
	}
}

func TestCovers(t *testing.T) {
	outer := RectWH(0, 0, 100, 100)
	if !outer.Covers(RectWH(10, 10, 20, 20)) {
		t.Fatal("outer does not cover strict subset")
	}
	if !outer.Covers(outer) {
		t.Fatal("rect does not cover itself")
	}
	if outer.Covers(RectWH(90, 90, 20, 20)) {
		t.Fatal("outer covers overflowing rect")
	}
	if !outer.Covers(Rect{}) {
		t.Fatal("rect does not cover empty rect")
	}
}

// Property: intersection is symmetric, and a rect covering a non-empty
// rect intersects it.
func TestPropertyIntersect(t *testing.T) {
	prop := func(ax, ay, aw, ah, bx, by, bw, bh uint8) bool {
		a := RectWH(float64(ax), float64(ay), float64(aw), float64(ah))
		b := RectWH(float64(bx), float64(by), float64(bw), float64(bh))
		if a.Intersects(b) != b.Intersects(a) {
			return false
		}
		return !a.Covers(b) || b.Empty() || a.Intersects(b)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: rects that both contain a point intersect.
func TestPropertyContainsIntersection(t *testing.T) {
	prop := func(ax, ay, bx, by uint8, px, py uint8) bool {
		a := RectWH(float64(ax), float64(ay), 50, 50)
		b := RectWH(float64(bx), float64(by), 50, 50)
		p := Pt(float64(px), float64(py))
		if a.Contains(p) && b.Contains(p) {
			return a.Intersects(b)
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

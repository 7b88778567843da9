package anim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func allInterpolators() []Interpolator {
	return []Interpolator{
		Linear{},
		Accelerate{},
		Decelerate{},
		FastOutSlowIn(),
		Reverse{Inner: Accelerate{}},
	}
}

func TestInterpolatorEndpoints(t *testing.T) {
	for _, ip := range allInterpolators() {
		lo, hi := ip.Interpolate(0), ip.Interpolate(1)
		if _, isRev := ip.(Reverse); isRev {
			if lo != 1 || hi != 0 {
				t.Errorf("%s endpoints = (%v,%v), want (1,0)", ip.Name(), lo, hi)
			}
			continue
		}
		if lo != 0 {
			t.Errorf("%s.Interpolate(0) = %v, want 0", ip.Name(), lo)
		}
		if math.Abs(hi-1) > 1e-9 {
			t.Errorf("%s.Interpolate(1) = %v, want 1", ip.Name(), hi)
		}
	}
}

func TestInterpolatorRangeAndMonotone(t *testing.T) {
	for _, ip := range []Interpolator{Linear{}, Accelerate{}, Decelerate{}, FastOutSlowIn()} {
		prev := -1.0
		for i := 0; i <= 1000; i++ {
			x := float64(i) / 1000
			y := ip.Interpolate(x)
			if y < 0 || y > 1 {
				t.Fatalf("%s.Interpolate(%v) = %v out of [0,1]", ip.Name(), x, y)
			}
			if y < prev-1e-9 {
				t.Fatalf("%s not monotone at x=%v: %v < %v", ip.Name(), x, y, prev)
			}
			prev = y
		}
	}
}

func TestInterpolatorClampsOutOfRange(t *testing.T) {
	for _, ip := range allInterpolators() {
		if got := ip.Interpolate(-0.5); got != ip.Interpolate(0) {
			t.Errorf("%s.Interpolate(-0.5) = %v, want clamp to f(0)", ip.Name(), got)
		}
		if got := ip.Interpolate(1.5); got != ip.Interpolate(1) {
			t.Errorf("%s.Interpolate(1.5) = %v, want clamp to f(1)", ip.Name(), got)
		}
	}
}

func TestAccelerateIsSquare(t *testing.T) {
	ip := Accelerate{}
	for _, x := range []float64{0, 0.1, 0.25, 0.5, 0.9, 1} {
		if got, want := ip.Interpolate(x), x*x; math.Abs(got-want) > 1e-12 {
			t.Errorf("Accelerate(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestDecelerateIsInvertedParabola(t *testing.T) {
	ip := Decelerate{}
	for _, x := range []float64{0, 0.1, 0.25, 0.5, 0.9, 1} {
		want := 1 - (1-x)*(1-x)
		if got := ip.Interpolate(x); math.Abs(got-want) > 1e-12 {
			t.Errorf("Decelerate(%v) = %v, want %v", x, got, want)
		}
	}
}

// TestFastOutSlowInPaperAnchors checks the two quantitative claims the
// paper makes about Fig. 2: less than 50% completeness in the first 100 ms
// of the 360 ms animation, and ~0.17% at the first 10 ms frame.
func TestFastOutSlowInPaperAnchors(t *testing.T) {
	ip := FastOutSlowIn()
	at100 := ip.Interpolate(100.0 / 360.0)
	if at100 >= 0.5 {
		t.Fatalf("completeness at 100ms = %.3f, paper says < 0.5", at100)
	}
	at10 := ip.Interpolate(10.0 / 360.0)
	if at10 > 0.01 {
		t.Fatalf("completeness at first 10ms frame = %.5f, paper says ≈0.0017", at10)
	}
	if at10 <= 0 {
		t.Fatalf("completeness at 10ms = %v, want > 0", at10)
	}
}

// TestNexus6PFirstFrameInvisible reproduces the paper's worked example: a
// 72-pixel notification view renders 0 pixels on the first 10 ms frame.
func TestNexus6PFirstFrameInvisible(t *testing.T) {
	ip := FastOutSlowIn()
	completeness := ip.Interpolate(10.0 / 360.0)
	if px := VisiblePixels(72, completeness); px != 0 {
		t.Fatalf("first frame renders %d px of 72, paper says 0", px)
	}
}

func TestVisiblePixels(t *testing.T) {
	tests := []struct {
		h    int
		c    float64
		want int
	}{
		{72, 0, 0},
		{72, 1, 72},
		{72, 0.5, 36},
		{72, 0.0017, 0},
		{72, 0.999, 71},
		{0, 1, 0},
		{-5, 1, 0},
		{72, 2.0, 72}, // clamped
		{72, -1.0, 0}, // clamped
		{100, 0.499, 49},
	}
	for _, tt := range tests {
		if got := VisiblePixels(tt.h, tt.c); got != tt.want {
			t.Errorf("VisiblePixels(%d, %v) = %d, want %d", tt.h, tt.c, got, tt.want)
		}
	}
}

func TestCubicBezierSolverRoundTrip(t *testing.T) {
	// For the identity-ish curve with control points on the diagonal the
	// Bézier reduces to y = x.
	bz := CubicBezier{X1: 1.0 / 3, Y1: 1.0 / 3, X2: 2.0 / 3, Y2: 2.0 / 3, label: "diag"}
	for i := 0; i <= 100; i++ {
		x := float64(i) / 100
		if got := bz.Interpolate(x); math.Abs(got-x) > 1e-6 {
			t.Fatalf("diagonal bezier(%v) = %v, want %v", x, got, x)
		}
	}
}

func TestBezierNames(t *testing.T) {
	if got := FastOutSlowIn().Name(); got != "FastOutSlowInInterpolator" {
		t.Fatalf("Name = %q", got)
	}
	bz := CubicBezier{X1: 0.1, Y1: 0.2, X2: 0.3, Y2: 0.4}
	if got := bz.Name(); got != "CubicBezier(0.10,0.20,0.30,0.40)" {
		t.Fatalf("unlabeled Name = %q", got)
	}
}

func TestReverseInterpolator(t *testing.T) {
	r := Reverse{Inner: Linear{}}
	for _, x := range []float64{0, 0.25, 0.5, 1} {
		if got := r.Interpolate(x); math.Abs(got-(1-x)) > 1e-12 {
			t.Errorf("Reverse(Linear)(%v) = %v, want %v", x, got, 1-x)
		}
	}
}

func TestSampleCurve(t *testing.T) {
	pts := Sample(Linear{}, 360*time.Millisecond, 36)
	if len(pts) != 37 {
		t.Fatalf("len = %d, want 37", len(pts))
	}
	if pts[0].At != 0 || pts[0].Completeness != 0 {
		t.Fatalf("first point = %+v, want origin", pts[0])
	}
	last := pts[len(pts)-1]
	if last.At != 360*time.Millisecond || math.Abs(last.Completeness-1) > 1e-9 {
		t.Fatalf("last point = %+v, want (360ms, 1)", last)
	}
	if pts := Sample(Linear{}, time.Second, 0); len(pts) != 2 {
		t.Fatalf("Sample with n=0 gave %d points, want clamp to 2", len(pts))
	}
}

// TestFigure4Crossover checks the structural relationship the toast attack
// relies on: the enter curve (Decelerate) is always at or above the exit
// curve (Accelerate), so a new toast is always more visible than the
// departing one at equal animation age.
func TestFigure4Crossover(t *testing.T) {
	enter, exit := Decelerate{}, Accelerate{}
	for i := 0; i <= 500; i++ {
		x := float64(i) / 500
		if enter.Interpolate(x) < exit.Interpolate(x)-1e-12 {
			t.Fatalf("enter < exit at x=%v", x)
		}
	}
	// Exit is slow early: after 20% of the fade only 4% has faded.
	if got := exit.Interpolate(0.2); got > 0.05 {
		t.Fatalf("exit at 20%% time = %v, want ≤ 0.04-ish", got)
	}
}

// Property: all interpolators stay within [0,1] for arbitrary inputs.
func TestPropertyInterpolatorBounded(t *testing.T) {
	ips := allInterpolators()
	prop := func(raw int16) bool {
		x := float64(raw) / 1000
		for _, ip := range ips {
			y := ip.Interpolate(x)
			if y < 0 || y > 1 || math.IsNaN(y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: FastOutSlowIn solver inverts x(t) accurately: interpolating the
// x-coordinate of any t recovers the y-coordinate of that t.
func TestPropertyBezierSolverAccuracy(t *testing.T) {
	bz := FastOutSlowIn()
	prop := func(raw uint16) bool {
		tt := float64(raw) / 65535
		x := bezierCoord(tt, bz.X1, bz.X2)
		wantY := bezierCoord(tt, bz.Y1, bz.Y2)
		return math.Abs(bz.Interpolate(x)-wantY) < 1e-5
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Package anim reimplements the slice of Android's animation framework the
// paper depends on: the interpolator curves (Figures 2 and 4), a cubic
// Bézier solver, and a frame-clocked Animation runner driven by the
// discrete-event simulation clock.
//
// The attack surface the paper identifies lives entirely in this package's
// semantics: the notification alert slides in under a 360 ms
// FastOutSlowInInterpolator (so nothing is visible for a long prefix of the
// animation), and toasts fade out under a 500 ms AccelerateInterpolator (so
// a replacement toast can appear before the old one visibly dims).
package anim

import (
	"fmt"
	"math"
	"time"
)

// Standard Android animation constants referenced by the paper.
const (
	// NotificationSlideDuration is ANIMATION_DURATION_STANDARD, the
	// duration of the notification alert slide-down animation.
	NotificationSlideDuration = 360 * time.Millisecond
	// ToastFadeDuration is the duration of toast enter/exit animations.
	ToastFadeDuration = 500 * time.Millisecond
	// DefaultFrameInterval is the default refresh interval; the first
	// frame of an animation renders no earlier than this.
	DefaultFrameInterval = 10 * time.Millisecond
)

// Interpolator maps an input animation fraction in [0,1] to an output
// progress fraction in [0,1]. Implementations must be monotone and fix the
// endpoints (0 ↦ 0, 1 ↦ 1).
type Interpolator interface {
	// Interpolate returns the eased progress for input fraction x.
	Interpolate(x float64) float64
	// Name reports the Android class name of the interpolator.
	Name() string
}

// clamp01 clamps x into [0,1]; interpolators tolerate slightly out-of-range
// inputs produced by frame-time arithmetic.
func clamp01(x float64) float64 {
	switch {
	case x < 0:
		return 0
	case x > 1:
		return 1
	default:
		return x
	}
}

// Linear is the identity interpolator (LinearInterpolator).
type Linear struct{}

// Interpolate implements Interpolator.
func (Linear) Interpolate(x float64) float64 { return clamp01(x) }

// Name implements Interpolator.
func (Linear) Name() string { return "LinearInterpolator" }

// Accelerate is Android's AccelerateInterpolator with factor 1:
// y = x². Toast exit animations use it, which is why a toast's
// disappearance is imperceptible early on (Fig. 4, lower curve).
type Accelerate struct{}

// Interpolate implements Interpolator.
func (Accelerate) Interpolate(x float64) float64 {
	x = clamp01(x)
	return x * x
}

// Name implements Interpolator.
func (Accelerate) Name() string { return "AccelerateInterpolator" }

// Decelerate is Android's DecelerateInterpolator with factor 1:
// y = 1 − (1−x)². Toast entry animations use it, so a new toast becomes
// visible almost immediately (Fig. 4, upper curve).
type Decelerate struct{}

// Interpolate implements Interpolator.
func (Decelerate) Interpolate(x float64) float64 {
	x = clamp01(x)
	inv := 1 - x
	return 1 - inv*inv
}

// Name implements Interpolator.
func (Decelerate) Name() string { return "DecelerateInterpolator" }

// CubicBezier is a unit cubic Bézier easing curve with control points
// (X1,Y1) and (X2,Y2); the endpoints are fixed at (0,0) and (1,1). It
// matches the CSS/Android PathInterpolator semantics: the input fraction is
// the x coordinate and the output is the corresponding y.
type CubicBezier struct {
	X1, Y1, X2, Y2 float64
	label          string
}

// FastOutSlowIn is the Material-design standard curve used by the
// notification slide-down animation: cubic-bezier(0.4, 0, 0.2, 1). Under
// this curve less than 50% of the notification view is shown in the first
// 100 ms of the 360 ms animation (Fig. 2).
func FastOutSlowIn() CubicBezier {
	return CubicBezier{X1: 0.4, Y1: 0, X2: 0.2, Y2: 1, label: "FastOutSlowInInterpolator"}
}

func bezierCoord(t, p1, p2 float64) float64 {
	// Cubic Bézier with endpoints 0 and 1:
	// B(t) = 3(1−t)²t·p1 + 3(1−t)t²·p2 + t³
	mt := 1 - t
	return 3*mt*mt*t*p1 + 3*mt*t*t*p2 + t*t*t
}

func bezierCoordDeriv(t, p1, p2 float64) float64 {
	mt := 1 - t
	return 3*mt*mt*p1 + 6*mt*t*(p2-p1) + 3*t*t*(1-p2)
}

// solveT finds the curve parameter t with x(t) = x, using Newton iteration
// with a bisection fallback; the curve's x(t) is monotone because the
// control x values lie in [0,1].
func (b CubicBezier) solveT(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	t := x
	for i := 0; i < 8; i++ {
		err := bezierCoord(t, b.X1, b.X2) - x
		if math.Abs(err) < 1e-9 {
			return t
		}
		d := bezierCoordDeriv(t, b.X1, b.X2)
		if math.Abs(d) < 1e-7 {
			break
		}
		t = clamp01(t - err/d)
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 64; i++ {
		mid := (lo + hi) / 2
		if bezierCoord(mid, b.X1, b.X2) < x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Interpolate implements Interpolator.
func (b CubicBezier) Interpolate(x float64) float64 {
	x = clamp01(x)
	t := b.solveT(x)
	return clamp01(bezierCoord(t, b.Y1, b.Y2))
}

// Name implements Interpolator.
func (b CubicBezier) Name() string {
	if b.label != "" {
		return b.label
	}
	return fmt.Sprintf("CubicBezier(%.2f,%.2f,%.2f,%.2f)", b.X1, b.Y1, b.X2, b.Y2)
}

// Reverse wraps an interpolator so that progress runs from 1 to 0; used
// when System UI plays the slide-down animation "in a reverse way" to
// retract a partially shown notification.
type Reverse struct {
	Inner Interpolator
}

// Interpolate implements Interpolator.
func (r Reverse) Interpolate(x float64) float64 {
	return 1 - r.Inner.Interpolate(clamp01(x))
}

// Name implements Interpolator.
func (r Reverse) Name() string { return "Reverse(" + r.Inner.Name() + ")" }

// Compile-time interface checks.
var (
	_ Interpolator = Linear{}
	_ Interpolator = Accelerate{}
	_ Interpolator = Decelerate{}
	_ Interpolator = CubicBezier{}
	_ Interpolator = Reverse{}
)

// Sample evaluates an interpolator at n+1 evenly spaced instants across a
// duration and returns (time, completeness) pairs. The experiment harness
// uses it to regenerate the curves of Figures 2 and 4.
func Sample(ip Interpolator, duration time.Duration, n int) []CurvePoint {
	if n < 1 {
		n = 1
	}
	out := make([]CurvePoint, 0, n+1)
	for i := 0; i <= n; i++ {
		x := float64(i) / float64(n)
		out = append(out, CurvePoint{
			At:           time.Duration(float64(duration) * x),
			Completeness: ip.Interpolate(x),
		})
	}
	return out
}

// CurvePoint is one sample of an animation-completeness curve.
type CurvePoint struct {
	// At is the elapsed time into the animation.
	At time.Duration
	// Completeness is the eased progress in [0,1].
	Completeness float64
}

// VisiblePixels converts an animation completeness into the number of
// physical pixels of a view of the given height that are actually rendered.
// Android rounds down: the paper's Nexus 6P example shows a 72-pixel view
// with 0.17% completeness renders ⌊0.1224⌋ = 0 pixels, so the first frame
// shows nothing.
func VisiblePixels(heightPx int, completeness float64) int {
	if heightPx <= 0 {
		return 0
	}
	px := int(math.Floor(float64(heightPx) * clamp01(completeness)))
	if px > heightPx {
		return heightPx
	}
	return px
}

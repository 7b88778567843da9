package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/anim"
)

// Fig2 regenerates Figure 2: time versus completeness of the notification
// slide-down animation under FastOutSlowInInterpolator over its 360 ms
// duration, sampled at every 10 ms frame.
func Fig2() []anim.CurvePoint {
	return anim.Sample(anim.FastOutSlowIn(), anim.NotificationSlideDuration, 36)
}

// Fig4 regenerates Figure 4: the toast enter curve (Decelerate) and exit
// curve (Accelerate) over the 500 ms toast fade, sampled every 10 ms.
func Fig4() (decelerate, accelerate []anim.CurvePoint) {
	decelerate = anim.Sample(anim.Decelerate{}, anim.ToastFadeDuration, 50)
	accelerate = anim.Sample(anim.Accelerate{}, anim.ToastFadeDuration, 50)
	return decelerate, accelerate
}

// RenderFig2 renders Figure 2 with the paper's two callouts annotated.
func RenderFig2() string {
	pts := Fig2()
	var sb strings.Builder
	sb.WriteString("Fig. 2 — FastOutSlowInInterpolator completeness over 360 ms\n")
	for _, p := range pts {
		note := ""
		switch p.At {
		case 10 * time.Millisecond:
			note = "   <- first frame: 72px view renders 0 px"
		case 100 * time.Millisecond:
			note = "   <- paper: <50% at 100 ms"
		}
		fmt.Fprintf(&sb, "  %4d ms  %6.2f%%%s\n", p.At/time.Millisecond, 100*p.Completeness, note)
	}
	return sb.String()
}

// RenderFig4 renders both Figure 4 curves side by side.
func RenderFig4() string {
	dec, acc := Fig4()
	var sb strings.Builder
	sb.WriteString("Fig. 4 — toast animation completeness over 500 ms\n")
	sb.WriteString("   time   Decelerate(enter)  Accelerate(exit)\n")
	for i := range dec {
		fmt.Fprintf(&sb, "  %4d ms  %10.2f%%  %12.2f%%\n",
			dec[i].At/time.Millisecond, 100*dec[i].Completeness, 100*acc[i].Completeness)
	}
	return sb.String()
}

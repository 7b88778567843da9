package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/sysui"
)

// Fig6Point is one sample of the outcome-versus-D sweep.
type Fig6Point struct {
	// D is the attacking window.
	D time.Duration
	// Outcome is the worst Λ outcome observed at this D.
	Outcome sysui.Outcome
}

// fig6Exp regenerates the Figure 6 phenomenology on one device: sweeping D
// from well below to well above the device's bound produces the Λ1→Λ5
// progression of notification-visibility outcomes. One trial per sweep
// point.
type fig6Exp struct {
	model string
	ds    []time.Duration
}

func (e *fig6Exp) Name() string   { return "fig6" }
func (e *fig6Exp) Params() string { return "model=" + e.model }

func (e *fig6Exp) Trials(seed int64) ([]Trial, error) {
	p, err := seedDevice(e.model)
	if err != nil {
		return nil, err
	}
	bound := boundOf(p)
	// Sweep from 40% of the bound to bound + 750 ms in 30 ms steps: the
	// five outcome regimes all live in this range (Λ5 needs D past the
	// slide, text layout and message render), and the narrowest regime
	// (Λ3) is ~60 ms wide, so a 30 ms step cannot miss it.
	e.ds = nil
	var trials []Trial
	i := 0
	for d := bound * 2 / 5; d <= bound+750*time.Millisecond; d += 30 * time.Millisecond {
		d, i := d, i
		e.ds = append(e.ds, d)
		trials = append(trials, NewTrial(
			fmt.Sprintf("fig6 model=%s seed=%d d=%dms", e.model, seed, d/time.Millisecond),
			fmt.Sprintf("fig6 point D=%v", d),
			func() (sysui.Outcome, error) {
				var o sysui.Outcome
				err := safeTrial(fmt.Sprintf("fig6 point D=%v", d), func() error {
					var perr error
					o, perr = OutcomeForD(p, d, 6*time.Second, seed+int64(i))
					return perr
				})
				return o, err
			}))
		i++
	}
	return trials, nil
}

// points pairs the sweep's D values with the trial results.
func (e *fig6Exp) points(results []any) []Fig6Point {
	pts := make([]Fig6Point, len(results))
	for i := range results {
		pts[i] = Fig6Point{D: e.ds[i], Outcome: Res[sysui.Outcome](results, i)}
	}
	return pts
}

func (e *fig6Exp) Render(results []any) (Output, error) {
	return Output{Text: RenderFig6(e.model, e.points(results))}, nil
}

// Regimes compresses a Fig. 6 sweep into the first D at which each outcome
// was observed — the "five photos" of the paper's Fig. 6.
func Regimes(pts []Fig6Point) map[sysui.Outcome]time.Duration {
	firstAt := make(map[sysui.Outcome]time.Duration)
	for _, p := range pts {
		if _, seen := firstAt[p.Outcome]; !seen {
			firstAt[p.Outcome] = p.D
		}
	}
	return firstAt
}

// RenderFig6 formats the sweep as regime transitions plus the first D of
// each outcome.
func RenderFig6(model string, pts []Fig6Point) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig. 6 — notification-view outcomes v.s. D on %s\n", model)
	for i, p := range pts {
		if i == 0 || p.Outcome != pts[i-1].Outcome || i == len(pts)-1 {
			fmt.Fprintf(&sb, "  D = %4d ms  →  %s\n", p.D/time.Millisecond, p.Outcome)
		}
	}
	first := Regimes(pts)
	sb.WriteString("  first D per outcome:")
	for _, o := range []sysui.Outcome{sysui.Lambda1, sysui.Lambda2, sysui.Lambda3, sysui.Lambda4, sysui.Lambda5} {
		if d, ok := first[o]; ok {
			fmt.Fprintf(&sb, "  %s@%dms", o, d/time.Millisecond)
		} else {
			fmt.Fprintf(&sb, "  %s@-", o)
		}
	}
	sb.WriteString("\n")
	return sb.String()
}

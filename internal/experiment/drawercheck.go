package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

// DrawerCheckReport quantifies a question the paper raises but does not
// measure: the overlay alert "can be viewed any time by swiping down on
// the Android status bar" — so what does a vigilant user who checks the
// drawer at a random moment actually see during the attack?
//
// The answer has two layers. The alert *entry* is present in the drawer
// for most of each cycle (from the post notice until the next cycle's
// remove). But the entry's *view* renders only as far as the slide-down
// animation progressed, and at D below the bound the animation never
// draws a pixel — so the drawer shows an invisible container and the
// random check still catches nothing.
type DrawerCheckReport struct {
	Model string
	// Rows pairs each attacking window with the drawer-state fractions.
	Rows []DrawerCheckRow
}

// DrawerCheckRow is one D's drawer-exposure measurement.
type DrawerCheckRow struct {
	D time.Duration
	// EntryPresentPct is the percentage of attack time with an alert
	// entry listed in the drawer (rendered or not).
	EntryPresentPct float64
	// PixelsVisiblePct is the percentage of attack time at which the
	// entry had actually rendered at least one pixel — the user-visible
	// exposure.
	PixelsVisiblePct float64
}

// DrawerCheck samples drawer state at 1 ms granularity over a 20 s attack
// for several attacking windows.
func DrawerCheck(model string, seed int64) (DrawerCheckReport, error) {
	p, err := seedDevice(model)
	if err != nil {
		return DrawerCheckReport{}, err
	}
	rep := DrawerCheckReport{Model: model}
	bound := float64(boundOf(p))
	// The last sweep point sits well past the bound, where the animation
	// gets far enough to render before each retraction.
	for i, frac := range []float64{0.5, 0.9, 2.5} {
		d := time.Duration(bound * frac)
		st, err := assembleAttackStack(p, seed+int64(i))
		if err != nil {
			return rep, err
		}
		atk, err := core.NewOverlayAttack(st, core.OverlayAttackConfig{
			App: AttackerApp, D: d, Bounds: screenOf(p),
		})
		if err != nil {
			return rep, fmt.Errorf("experiment: drawer-check attack: %w", err)
		}
		if err := atk.Start(); err != nil {
			return rep, fmt.Errorf("experiment: start: %w", err)
		}
		const horizon = 20 * time.Second
		present, visible, samples := 0, 0, 0
		var probe func()
		probe = func() {
			if st.Clock.Now() > horizon {
				return
			}
			samples++
			if st.UI.ActiveAlert(AttackerApp) {
				present++
			}
			if st.UI.AlertVisiblePx(AttackerApp) > 0 {
				visible++
			}
			st.Clock.MustAfter(time.Millisecond, "drawer/probe", probe)
		}
		st.Clock.MustAfter(time.Second, "drawer/probe", probe)
		st.Clock.MustAfter(horizon, "drawer/stop", atk.Stop)
		if err := st.Clock.RunFor(horizon + 2*time.Second); err != nil {
			return rep, fmt.Errorf("experiment: run: %w", err)
		}
		rep.Rows = append(rep.Rows, DrawerCheckRow{
			D:                d,
			EntryPresentPct:  stats.Ratio(present, samples),
			PixelsVisiblePct: stats.Ratio(visible, samples),
		})
	}
	return rep, nil
}

// RenderDrawerCheck formats the report.
func RenderDrawerCheck(r DrawerCheckReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Drawer-check exposure during the overlay attack (%s)\n", r.Model)
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  D = %3d ms → entry present %5.1f%% of the time, pixels visible %5.1f%%\n",
			row.D/time.Millisecond, row.EntryPresentPct, row.PixelsVisiblePct)
	}
	sb.WriteString("  (below the bound the drawer holds an entry that never rendered a pixel)\n")
	return sb.String()
}

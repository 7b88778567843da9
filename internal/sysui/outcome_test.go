package sysui_test

import (
	"testing"
	"time"

	"repro/internal/binder"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/sysserver"
	"repro/internal/sysui"
)

// TestPropertyWorstOutcomeNeverDecreases steps the draw-and-destroy attack
// one event at a time across a grid of attacking windows D under the chaos
// fault profile and checks that WorstOutcome never falls from one fired
// event to the next. A run may stop once its worst outcome reaches the
// outcome that decides its verdict only because of this property.
func TestPropertyWorstOutcomeNeverDecreases(t *testing.T) {
	const app binder.ProcessID = "com.attacker.app"
	seen := map[sysui.Outcome]bool{}
	for _, model := range []string{"pixel 2", "mi8"} {
		p, ok := device.Seed().ByModel(model)
		if !ok {
			t.Fatalf("unknown model %q", model)
		}
		for d := 20 * time.Millisecond; d <= 1600*time.Millisecond; d += 60 * time.Millisecond {
			seed := int64(d / time.Millisecond)
			st, err := sysserver.Assemble(p, seed, sysserver.WithFaults(faults.NewPlane(faults.Chaos(), seed)))
			if err != nil {
				t.Fatalf("%s D=%v: assemble: %v", model, d, err)
			}
			st.WM.GrantOverlayPermission(app)
			atk, err := core.NewOverlayAttack(st, core.OverlayAttackConfig{
				App:    app,
				D:      d,
				Bounds: geom.RectWH(0, 0, float64(p.ScreenW), float64(p.ScreenH)),
			})
			if err != nil {
				t.Fatalf("%s D=%v: build attack: %v", model, d, err)
			}
			if err := atk.Start(); err != nil {
				t.Fatalf("%s D=%v: start attack: %v", model, d, err)
			}
			st.Clock.MustAfter(4*time.Second, "test/stop", atk.Stop)
			prev := st.UI.WorstOutcome()
			for st.Clock.NextEventTime() <= 9*time.Second && st.Clock.Step() {
				o := st.UI.WorstOutcome()
				if o < prev {
					t.Fatalf("%s D=%v: WorstOutcome fell from %v to %v at %v", model, d, prev, o, st.Clock.Now())
				}
				prev = o
			}
			seen[prev] = true
		}
	}
	t.Logf("final worst outcomes over the grid: %v", seen)
	// The grid must reach every outcome, or the property held over runs
	// where nothing could fall.
	if len(seen) < 5 {
		t.Fatalf("D grid reached only the outcomes %v", seen)
	}
}

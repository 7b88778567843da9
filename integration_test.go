// Integration soak: a multi-minute simulated attack session exercising
// the whole stack end-to-end, checking that state stays bounded and the
// system returns to quiescence.
package repro_test

import (
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/binder"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/ime"
	"repro/internal/input"
	"repro/internal/keyboard"
	"repro/internal/simrand"
	"repro/internal/sysserver"
	"repro/internal/sysui"
)

const soakAttacker binder.ProcessID = "com.evil.app"

// TestSoakFiveMinuteAttackSession runs a 5-minute simulated session: the
// user logs into the bank app three times; between logins the attacker's
// toast and overlay machinery keeps cycling. At the end, no windows leak,
// the alert history is bounded, and every alert stayed at Λ1.
func TestSoakFiveMinuteAttackSession(t *testing.T) {
	p, ok := device.Seed().ByModel("mi9") // Android 10: the widest-Tmis regime
	if !ok {
		t.Fatal("mi9 missing")
	}
	st, err := sysserver.Assemble(p, 97)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	st.WM.GrantOverlayPermission(soakAttacker)
	screen := geom.RectWH(0, 0, float64(p.ScreenW), float64(p.ScreenH))
	bofa, _ := apps.ByName("Bank of America")
	sess, err := bofa.NewLoginSession(st.Clock, screen)
	if err != nil {
		t.Fatalf("NewLoginSession: %v", err)
	}
	kb, err := keyboard.New(sess.KeyboardBounds)
	if err != nil {
		t.Fatalf("keyboard.New: %v", err)
	}
	if _, err := ime.Show(st, kb, sess.Activity); err != nil {
		t.Fatalf("ime.Show: %v", err)
	}
	typist, err := input.NewTypist(simrand.New(101))
	if err != nil {
		t.Fatalf("NewTypist: %v", err)
	}

	// Three login rounds at minutes 0.5, 2 and 3.5; a fresh stealer is
	// created and armed shortly before each login, as resident malware
	// re-arms per session. Arming lazily also keeps one stealer active
	// at a time — concurrently armed instances would race for the same
	// touches.
	stolen := make([]string, 0, 3)
	for round := 0; round < 3; round++ {
		base := 30*time.Second + time.Duration(round)*90*time.Second
		var stealer *core.PasswordStealer
		st.Clock.MustAfter(base-2*time.Second, "soak/arm", func() {
			var err error
			stealer, err = core.NewPasswordStealer(st, core.PasswordStealerConfig{
				App: soakAttacker, Victim: sess, Keyboard: kb,
			})
			if err != nil {
				panic(err)
			}
			if err := stealer.Arm(); err != nil {
				panic(err)
			}
		})
		st.Clock.MustAfter(base, "soak/focus", func() {
			sess.Password.SetText("")
			if err := sess.Activity.Focus(sess.Username); err != nil {
				panic(err)
			}
			if err := sess.Activity.Focus(sess.Password); err != nil {
				panic(err)
			}
		})
		ks, err := typist.PlanSession(kb, "s0ak&Run", base+time.Second)
		if err != nil {
			t.Fatalf("PlanSession: %v", err)
		}
		for _, k := range ks {
			k := k
			st.Clock.MustAfter(k.DownAt, "soak/down", func() {
				gid, _, ok := st.WM.BeginGesture(k.Point)
				if !ok {
					return
				}
				st.Clock.MustAfter(k.UpAt-k.DownAt, "soak/up", func() {
					if _, err := st.WM.EndGesture(gid, k.Point); err != nil {
						panic(err)
					}
				})
			})
		}
		end := ks[len(ks)-1].UpAt + 2*time.Second
		st.Clock.MustAfter(end, "soak/stop", func() {
			stolen = append(stolen, stealer.StolenPassword())
			stealer.Stop()
		})
	}
	if err := st.Clock.RunFor(5 * time.Minute); err != nil {
		t.Fatalf("RunFor: %v", err)
	}

	if len(stolen) != 3 {
		t.Fatalf("completed %d rounds, want 3", len(stolen))
	}
	exact := 0
	for _, s := range stolen {
		if s == "s0ak&Run" {
			exact++
		}
	}
	if exact < 2 {
		t.Fatalf("exact recoveries %d/3: %q", exact, stolen)
	}
	// Quiescence: only the IME window remains.
	if got := st.WM.WindowCount(); got != 1 {
		t.Fatalf("windows at quiescence = %d, want 1 (the IME)", got)
	}
	if st.WM.OverlayCount(soakAttacker) != 0 {
		t.Fatal("attacker overlays leaked")
	}
	// Stealth held across the whole session.
	if got := st.UI.WorstOutcome(); got != sysui.Lambda1 {
		t.Fatalf("WorstOutcome = %v, want Λ1", got)
	}
	// History stays bounded while the true episode count is large.
	if got := len(st.UI.Episodes()); got > 4096 {
		t.Fatalf("retained episodes = %d, exceeds cap", got)
	}
	if st.UI.EpisodesTotal() < 50 {
		t.Fatalf("EpisodesTotal = %d; the soak should generate many episodes", st.UI.EpisodesTotal())
	}
}

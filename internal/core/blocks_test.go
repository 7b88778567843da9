package core

import (
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/ime"
	"repro/internal/keyboard"
	"repro/internal/simrand"
	"repro/internal/sysui"
	"repro/internal/wm"
)

// TestClickjackPassesTouchesToVictim: with the non-touchable lure on top,
// the user's taps land on the victim app below while the alert stays Λ1.
func TestClickjackPassesTouchesToVictim(t *testing.T) {
	p := device.Seed().Default()
	st := assemble(t, p, 51)
	var victimTaps int
	if _, err := st.WM.AddWindow(wm.Spec{
		Owner:  "com.android.settings",
		Type:   wm.TypeActivity,
		Bounds: screenOf(p),
		OnTouch: func(ev wm.TouchEvent) {
			if ev.Action == wm.ActionUp {
				victimTaps++
			}
		},
	}); err != nil {
		t.Fatalf("victim window: %v", err)
	}
	atk, err := NewClickjackAttack(st, ClickjackConfig{
		App:    evilApp,
		D:      time.Duration(float64(p.PaperUpperBoundD) * 0.9),
		Bounds: screenOf(p),
		Lure:   "Tap to claim your prize",
	})
	if err != nil {
		t.Fatalf("NewClickjackAttack: %v", err)
	}
	if err := atk.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if got := atk.Lure(); got != "Tap to claim your prize" {
		t.Fatalf("Lure = %q", got)
	}
	// The user taps "the prize" five times over a few seconds.
	for i := 0; i < 5; i++ {
		at := time.Duration(i+2) * time.Second
		st.Clock.MustAfter(at, "user/tap", func() {
			gid, target, ok := st.WM.BeginGesture(geom.Pt(540, 960))
			if !ok {
				t.Error("tap hit nothing")
				return
			}
			if target.Owner != "com.android.settings" {
				t.Errorf("tap landed on %s, want the victim beneath the lure", target.Owner)
			}
			st.Clock.MustAfter(50*time.Millisecond, "user/up", func() {
				if _, err := st.WM.EndGesture(gid, geom.Pt(540, 960)); err != nil {
					t.Errorf("EndGesture: %v", err)
				}
			})
		})
	}
	st.Clock.MustAfter(10*time.Second, "stop", atk.Stop)
	if err := st.Clock.RunFor(15 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if victimTaps != 5 {
		t.Fatalf("victim received %d taps, want 5 (pass-through)", victimTaps)
	}
	if got := st.UI.WorstOutcome(); got != sysui.Lambda1 {
		t.Fatalf("WorstOutcome = %v, want Λ1", got)
	}
	if atk.overlay.running {
		t.Fatal("attack still running after Stop")
	}
	if atk.overlay.Cycles() == 0 {
		t.Fatal("attack never cycled")
	}
}

func TestClickjackValidation(t *testing.T) {
	st := assemble(t, device.Seed().Default(), 1)
	if _, err := NewClickjackAttack(st, ClickjackConfig{
		App: evilApp, D: 100 * time.Millisecond, Bounds: screenOf(st.Profile),
	}); err == nil {
		t.Fatal("empty lure accepted")
	}
	if _, err := NewClickjackAttack(st, ClickjackConfig{
		App: evilApp, D: 0, Bounds: screenOf(st.Profile), Lure: "x",
	}); err == nil {
		t.Fatal("zero D accepted")
	}
}

// TestContentHideCoversRegion: the fake content stays over the region for
// an extended period without the alert or a flicker.
func TestContentHideCoversRegion(t *testing.T) {
	st := assemble(t, device.Seed().Default(), 53)
	region := geom.RectWH(100, 800, 880, 200) // the "Pay ¥1000" line
	atk, err := NewContentHideAttack(st, ContentHideConfig{
		App:         evilApp,
		Region:      region,
		FakeContent: "Pay ¥1",
	})
	if err != nil {
		t.Fatalf("NewContentHideAttack: %v", err)
	}
	if err := atk.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	coveredSamples, samples := 0, 0
	var probe func()
	probe = func() {
		if st.Clock.Now() > 20*time.Second {
			return
		}
		samples++
		// A toast of the attacker covers the region at a visible opacity.
		if st.WM.TopToastAlpha(evilApp) >= 0.5 {
			coveredSamples++
		}
		st.Clock.MustAfter(10*time.Millisecond, "probe", probe)
	}
	st.Clock.MustAfter(time.Second, "probe", probe)
	st.Clock.MustAfter(21*time.Second, "stop", atk.Stop)
	if err := st.Clock.RunFor(30 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	cov := float64(coveredSamples) / float64(samples)
	if cov < 0.97 {
		t.Fatalf("region covered %.3f of the time, want > 0.97", cov)
	}
	if got := len(st.UI.Episodes()); got != 0 {
		t.Fatalf("content-hide produced %d alert episodes, want 0 (toast vector)", got)
	}
	if atk.toast.running {
		t.Fatal("running after Stop")
	}
}

func TestContentHideValidation(t *testing.T) {
	st := assemble(t, device.Seed().Default(), 1)
	if _, err := NewContentHideAttack(st, ContentHideConfig{
		App: evilApp, Region: geom.RectWH(0, 0, 10, 10),
	}); err == nil {
		t.Fatal("empty fake content accepted")
	}
	if _, err := NewContentHideAttack(st, ContentHideConfig{
		App: evilApp, FakeContent: "x",
	}); err == nil {
		t.Fatal("empty region accepted")
	}
}

func TestSelectAttackWindow(t *testing.T) {
	p, _ := device.Seed().ByModel("Redmi") // bound 395ms
	if got := SelectAttackWindow(p); got != 355500*time.Microsecond {
		t.Fatalf("SelectAttackWindow(Redmi) = %v, want 355.5ms", got)
	}
	var unknown device.Profile
	if got := SelectAttackWindow(unknown); got != 50*time.Millisecond {
		t.Fatalf("SelectAttackWindow(unknown) = %v, want 50ms default", got)
	}
}

// TestStealerZeroDFingerprints: a zero D in the config selects the
// device-appropriate window automatically.
func TestStealerZeroDFingerprints(t *testing.T) {
	p, _ := device.Seed().ByModel("mi8")
	st := assemble(t, p, 61)
	bofa, _ := apps.ByName("Bank of America")
	sess, err := bofa.NewLoginSession(st.Clock, screenOf(p))
	if err != nil {
		t.Fatalf("NewLoginSession: %v", err)
	}
	kb, err := keyboard.New(sess.KeyboardBounds)
	if err != nil {
		t.Fatalf("keyboard.New: %v", err)
	}
	stealer, err := NewPasswordStealer(st, PasswordStealerConfig{
		App: evilApp, Victim: sess, Keyboard: kb, // D omitted
	})
	if err != nil {
		t.Fatalf("NewPasswordStealer: %v", err)
	}
	if got := stealer.cfg.D; got != SelectAttackWindow(p) {
		t.Fatalf("auto D = %v, want %v", got, SelectAttackWindow(p))
	}
	if _, err := NewPasswordStealer(st, PasswordStealerConfig{
		App: evilApp, Victim: sess, Keyboard: kb, D: -time.Second,
	}); err == nil {
		t.Fatal("negative D accepted")
	}
}

// TestStealerSurvivesMonkeyInput: random gestures across the whole screen
// (not just the keyboard) during an active attack must not break the
// stealer — off-keyboard touches miss the overlay entirely and on-keyboard
// garbage decodes to *something* without crashing.
func TestStealerSurvivesMonkeyInput(t *testing.T) {
	p := device.Seed().Default()
	st := assemble(t, p, 67)
	bofa, _ := apps.ByName("Bank of America")
	sess, err := bofa.NewLoginSession(st.Clock, screenOf(p))
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
	stealer, err := NewPasswordStealer(st, PasswordStealerConfig{
		App: evilApp, Victim: sess, Keyboard: kb,
	})
	if err != nil {
		t.Fatalf("NewPasswordStealer: %v", err)
	}
	if err := stealer.Arm(); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	if err := sess.Activity.Focus(sess.Password); err != nil {
		t.Fatalf("Focus: %v", err)
	}
	rng := simrand.New(71)
	for i := 0; i < 200; i++ {
		at := time.Duration(500+i*37) * time.Millisecond
		st.Clock.MustAfter(at, "monkey", func() {
			pt := geom.Pt(rng.Float64()*float64(p.ScreenW), rng.Float64()*float64(p.ScreenH))
			gid, _, ok := st.WM.BeginGesture(pt)
			if !ok {
				return
			}
			st.Clock.MustAfter(time.Duration(5+rng.Intn(80))*time.Millisecond, "monkey/up", func() {
				if _, err := st.WM.EndGesture(gid, pt); err != nil {
					t.Errorf("EndGesture: %v", err)
				}
			})
		})
	}
	st.Clock.MustAfter(10*time.Second, "stop", stealer.Stop)
	if err := st.Clock.RunFor(15 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	// Double stop is safe; the attack tore down cleanly.
	stealer.Stop()
	if err := st.Clock.RunFor(5 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if st.WM.OverlayCount(evilApp) != 0 {
		t.Fatal("overlays leaked after monkey session")
	}
}

// TestOverlayAttackSuppressesOnAllDevices is the fleet smoke test: the
// attack at 85% of each device's calibrated bound must reach Λ1 on every
// one of the 30 evaluation phones.
func TestOverlayAttackSuppressesOnAllDevices(t *testing.T) {
	for i, p := range device.Seed().Profiles() {
		p := p
		st := assemble(t, p, int64(100+i))
		atk, err := NewOverlayAttack(st, OverlayAttackConfig{
			App:    evilApp,
			D:      time.Duration(float64(p.PaperUpperBoundD) * 0.85),
			Bounds: screenOf(p),
		})
		if err != nil {
			t.Fatalf("%s: NewOverlayAttack: %v", p.Name(), err)
		}
		if err := atk.Start(); err != nil {
			t.Fatalf("%s: Start: %v", p.Name(), err)
		}
		st.Clock.MustAfter(6*time.Second, "stop", atk.Stop)
		if err := st.Clock.RunFor(10 * time.Second); err != nil {
			t.Fatalf("%s: RunFor: %v", p.Name(), err)
		}
		if got := st.UI.WorstOutcome(); got != sysui.Lambda1 {
			t.Errorf("%s: WorstOutcome = %v, want Λ1", p.Name(), got)
		}
	}
}

// TestAddBeforeRemoveFailsAsPaperWarns reproduces the paper's negative
// result: issuing addView before removeView keeps an overlay present at
// all times, the alert is never retracted, and the animation completes.
func TestAddBeforeRemoveFailsAsPaperWarns(t *testing.T) {
	p, ok := device.Seed().ByModel("mi8")
	if !ok {
		t.Fatal("mi8 missing")
	}
	st := assemble(t, p, 57)
	atk, err := NewOverlayAttack(st, OverlayAttackConfig{
		App:             evilApp,
		D:               time.Duration(float64(p.PaperUpperBoundD) * 0.9),
		Bounds:          screenOf(p),
		AddBeforeRemove: true,
	})
	if err != nil {
		t.Fatalf("NewOverlayAttack: %v", err)
	}
	if err := atk.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	st.Clock.MustAfter(8*time.Second, "stop", atk.Stop)
	if err := st.Clock.RunFor(12 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if got := st.UI.WorstOutcome(); got != sysui.Lambda5 {
		t.Fatalf("WorstOutcome = %v; wrong call order must let the alert complete (Λ5)", got)
	}
}

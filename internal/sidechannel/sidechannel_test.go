package sidechannel

import (
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/binder"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/ime"
	"repro/internal/keyboard"
	"repro/internal/simclock"
	"repro/internal/sysserver"
	"repro/internal/wm"
)

const evilApp binder.ProcessID = "com.evil.app"

func newWM(t *testing.T) (*wm.Manager, *simclock.Clock) {
	t.Helper()
	clock := simclock.New()
	m, err := wm.NewManager(clock, geom.RectWH(0, 0, 1080, 1920))
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m, clock
}

func TestNewMeterValidation(t *testing.T) {
	if _, err := NewMeter(nil); err == nil {
		t.Fatal("nil manager accepted")
	}
}

func TestMeterTracksWindowBuffers(t *testing.T) {
	m, _ := newWM(t)
	meter, err := NewMeter(m)
	if err != nil {
		t.Fatalf("NewMeter: %v", err)
	}
	const app binder.ProcessID = "com.some.app"
	if got := meter.SharedVM(app); got != 0 {
		t.Fatalf("initial SharedVM = %d", got)
	}
	id, err := m.AddWindow(wm.Spec{Owner: app, Type: wm.TypeActivity, Bounds: geom.RectWH(0, 0, 100, 50)})
	if err != nil {
		t.Fatalf("AddWindow: %v", err)
	}
	if got := meter.SharedVM(app); got != 100*50*BytesPerPixel {
		t.Fatalf("SharedVM = %d, want %d", got, 100*50*BytesPerPixel)
	}
	if err := m.RemoveWindow(id); err != nil {
		t.Fatalf("RemoveWindow: %v", err)
	}
	if got := meter.SharedVM(app); got != 0 {
		t.Fatalf("SharedVM after removal = %d", got)
	}
}

func TestNewPollerValidation(t *testing.T) {
	m, clock := newWM(t)
	meter, err := NewMeter(m)
	if err != nil {
		t.Fatalf("NewMeter: %v", err)
	}
	valid := PollerConfig{Clock: clock, Meter: meter, Target: "t", SignatureBytes: 100}
	for _, tt := range []struct {
		name string
		mut  func(c *PollerConfig)
	}{
		{"nil clock", func(c *PollerConfig) { c.Clock = nil }},
		{"nil meter", func(c *PollerConfig) { c.Meter = nil }},
		{"empty target", func(c *PollerConfig) { c.Target = "" }},
		{"zero signature", func(c *PollerConfig) { c.SignatureBytes = 0 }},
		{"negative interval", func(c *PollerConfig) { c.Interval = -time.Second }},
	} {
		cfg := valid
		tt.mut(&cfg)
		if _, err := NewPoller(cfg); err == nil {
			t.Errorf("%s accepted", tt.name)
		}
	}
}

// TestPollerDetectsKeyboardPopup: the poller watching the IME process
// fires when the keyboard window appears, and not before.
func TestPollerDetectsKeyboardPopup(t *testing.T) {
	st, err := sysserver.Assemble(device.Seed().Default(), 3)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	meter, err := NewMeter(st.WM)
	if err != nil {
		t.Fatalf("NewMeter: %v", err)
	}
	var firedAt time.Duration = -1
	poller, err := NewPoller(PollerConfig{
		Clock:          st.Clock,
		Meter:          meter,
		Target:         ime.Process,
		SignatureBytes: KeyboardSignature(st.Profile.ScreenW, st.Profile.ScreenH, 0.375),
		OnSignature: func(at time.Duration, delta int64) {
			if firedAt < 0 {
				firedAt = at
			}
		},
	})
	if err != nil {
		t.Fatalf("NewPoller: %v", err)
	}
	poller.Start()
	// The keyboard shows 2 s in (the user tapped a text field).
	bofa, _ := apps.ByName("Bank of America")
	sess, err := bofa.NewLoginSession(st.Clock, geom.RectWH(0, 0, float64(st.Profile.ScreenW), float64(st.Profile.ScreenH)))
	if err != nil {
		t.Fatalf("NewLoginSession: %v", err)
	}
	kb, err := keyboard.New(sess.KeyboardBounds)
	if err != nil {
		t.Fatalf("keyboard.New: %v", err)
	}
	st.Clock.MustAfter(2*time.Second, "showIME", func() {
		if _, err := ime.Show(st, kb, sess.Activity); err != nil {
			t.Errorf("ime.Show: %v", err)
		}
	})
	if err := st.Clock.RunUntil(1900 * time.Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if firedAt >= 0 {
		t.Fatal("poller fired before the keyboard appeared")
	}
	if err := st.Clock.RunUntil(3 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	poller.Stop()
	if err := st.Clock.RunFor(5 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if firedAt < 2*time.Second || firedAt > 2*time.Second+200*time.Millisecond {
		t.Fatalf("poller fired at %v, want shortly after 2s", firedAt)
	}
	if poller.Fired() != 1 {
		t.Fatalf("Fired = %d, want 1", poller.Fired())
	}
}

// TestSideChannelTriggersPasswordStealer is the full alternative-trigger
// pipeline from the paper's Section V remark: no accessibility service at
// all — the stealer is triggered by the shared-memory signature of the
// keyboard appearing, and still recovers the password (without the
// widget-fill nicety, which needs the accessibility node).
func TestSideChannelTriggersPasswordStealer(t *testing.T) {
	p, ok := device.Seed().ByModel("mi8")
	if !ok {
		t.Fatal("mi8 missing")
	}
	st, err := sysserver.Assemble(p, 5)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	st.WM.GrantOverlayPermission(evilApp)
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
	stealer, err := core.NewPasswordStealer(st, core.PasswordStealerConfig{
		App: evilApp, Victim: sess, Keyboard: kb,
	})
	if err != nil {
		t.Fatalf("NewPasswordStealer: %v", err)
	}
	// NOTE: no stealer.Arm() — accessibility stays unused.
	meter, err := NewMeter(st.WM)
	if err != nil {
		t.Fatalf("NewMeter: %v", err)
	}
	poller, err := NewPoller(PollerConfig{
		Clock:          st.Clock,
		Meter:          meter,
		Target:         ime.Process,
		SignatureBytes: KeyboardSignature(p.ScreenW, p.ScreenH, 0.375),
		OnSignature:    func(time.Duration, int64) { stealer.TriggerNow() },
	})
	if err != nil {
		t.Fatalf("NewPoller: %v", err)
	}
	poller.Start()

	// The user taps the password field at 1 s; the IME shows; they type.
	st.Clock.MustAfter(time.Second, "user/focus", func() {
		if err := sess.Activity.Focus(sess.Password); err != nil {
			panic(err)
		}
		if _, err := ime.Show(st, kb, sess.Activity); err != nil {
			panic(err)
		}
	})
	const password = "pa55word"
	presses, err := kb.PlanPresses(password)
	if err != nil {
		t.Fatalf("PlanPresses: %v", err)
	}
	for i, pr := range presses {
		pr := pr
		down := 2100*time.Millisecond + time.Duration(i)*310*time.Millisecond
		st.Clock.MustAfter(down, "user/down", func() {
			gid, _, ok := st.WM.BeginGesture(pr.Key.Center())
			if !ok {
				return
			}
			st.Clock.MustAfter(50*time.Millisecond, "user/up", func() {
				if _, err := st.WM.EndGesture(gid, pr.Key.Center()); err != nil {
					t.Errorf("EndGesture: %v", err)
				}
			})
		})
	}
	end := 2100*time.Millisecond + time.Duration(len(presses))*310*time.Millisecond + time.Second
	st.Clock.MustAfter(end, "stop", func() {
		stealer.Stop()
		poller.Stop()
	})
	if err := st.Clock.RunFor(end + 10*time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if !stealer.Triggered() {
		t.Fatal("side channel never triggered the stealer")
	}
	if got := stealer.StolenPassword(); got != password {
		t.Fatalf("stolen = %q, want %q", got, password)
	}
	// Without accessibility there is no node reference: the real widget
	// stays empty (the user would notice on a real run; the paper pairs
	// this trigger with other fill strategies).
	if got := sess.Password.Text(); got != "" {
		t.Fatalf("victim widget = %q, want empty without accessibility", got)
	}
}

func TestKeyboardSignature(t *testing.T) {
	sig := KeyboardSignature(1080, 1920, 0.375)
	exact := int64(1080 * 1920 * 0.375 * BytesPerPixel)
	if sig >= exact || sig < exact/2 {
		t.Fatalf("signature %d not a sane margin below %d", sig, exact)
	}
}

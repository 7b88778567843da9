package defense

import (
	"testing"
	"time"

	"repro/internal/binder"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/ime"
	"repro/internal/keyboard"
	"repro/internal/sysserver"
	"repro/internal/sysui"
	"repro/internal/uikit"
	"repro/internal/wm"
)

const evilApp binder.ProcessID = "com.evil.app"

func assemble(t *testing.T) *sysserver.Stack {
	t.Helper()
	st, err := sysserver.Assemble(device.Seed().Default(), 42)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	st.WM.GrantOverlayPermission(evilApp)
	return st
}

func screenOf(st *sysserver.Stack) geom.Rect {
	return geom.RectWH(0, 0, float64(st.Profile.ScreenW), float64(st.Profile.ScreenH))
}

// TestDetectorFlagsOverlayAttack: the draw-and-destroy overlay attack must
// be detected within a few seconds.
func TestDetectorFlagsOverlayAttack(t *testing.T) {
	st := assemble(t)
	det, err := NewIPCDetector()
	if err != nil {
		t.Fatalf("NewIPCDetector: %v", err)
	}
	if err := det.Install(st, false); err != nil {
		t.Fatalf("Install: %v", err)
	}
	atk, err := core.NewOverlayAttack(st, core.OverlayAttackConfig{
		App: evilApp, D: 280 * time.Millisecond, Bounds: screenOf(st),
	})
	if err != nil {
		t.Fatalf("NewOverlayAttack: %v", err)
	}
	if err := atk.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	st.Clock.MustAfter(10*time.Second, "stop", atk.Stop)
	if err := st.Clock.RunFor(15 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if !det.Detected(evilApp) {
		t.Fatal("attack not detected")
	}
	ds := det.Detections()
	if len(ds) != 1 {
		t.Fatalf("detections = %d, want 1", len(ds))
	}
	d := ds[0]
	if d.Device != string(evilApp) {
		t.Fatalf("detected %q", d.Device)
	}
	// Detection should come within the first ~3 s of attack.
	if d.At > 4*time.Second {
		t.Fatalf("detection at %v, want within ~4s", d.At)
	}
	if d.Swaps < 4 || d.Calls < 8 {
		t.Fatalf("detection evidence too thin: %+v", d)
	}
	// Observed mean swap gap is the Tmis-scale remove→add distance.
	if d.MeanSwapGap <= 0 || d.MeanSwapGap > 50*time.Millisecond {
		t.Fatalf("mean swap gap = %v", d.MeanSwapGap)
	}
}

// TestDetectorTerminatesAttack: with terminate enabled the detector
// revokes SYSTEM_ALERT_WINDOW; the attack's overlays disappear and stay
// gone.
func TestDetectorTerminatesAttack(t *testing.T) {
	st := assemble(t)
	det, err := NewIPCDetector()
	if err != nil {
		t.Fatalf("NewIPCDetector: %v", err)
	}
	if err := det.Install(st, true); err != nil {
		t.Fatalf("Install: %v", err)
	}
	atk, err := core.NewOverlayAttack(st, core.OverlayAttackConfig{
		App: evilApp, D: 280 * time.Millisecond, Bounds: screenOf(st),
	})
	if err != nil {
		t.Fatalf("NewOverlayAttack: %v", err)
	}
	if err := atk.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	st.Clock.MustAfter(20*time.Second, "stop", atk.Stop)
	if err := st.Clock.RunFor(25 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if !det.Detected(evilApp) {
		t.Fatal("attack not detected")
	}
	if st.WM.HasOverlayPermission(evilApp) {
		t.Fatal("permission not revoked")
	}
	if st.WM.OverlayCount(evilApp) != 0 {
		t.Fatal("overlays still attached after termination")
	}
}

// TestDetectorIgnoresBenignOverlayApp: a floating-widget app (one overlay,
// added once, removed minutes later) must not be flagged.
func TestDetectorIgnoresBenignOverlayApp(t *testing.T) {
	st := assemble(t)
	const musicApp binder.ProcessID = "com.music.player"
	st.WM.GrantOverlayPermission(musicApp)
	det, err := NewIPCDetector()
	if err != nil {
		t.Fatalf("NewIPCDetector: %v", err)
	}
	if err := det.Install(st, false); err != nil {
		t.Fatalf("Install: %v", err)
	}
	add := func(h uint64) {
		if _, err := st.Bus.Call(musicApp, binder.SystemServer, sysserver.MethodAddView, sysserver.AddViewRequest{
			Handle: h, Type: wm.TypeApplicationOverlay, Bounds: geom.RectWH(100, 100, 300, 300),
		}); err != nil {
			t.Errorf("addView: %v", err)
		}
	}
	remove := func(h uint64) {
		if _, err := st.Bus.Call(musicApp, binder.SystemServer, sysserver.MethodRemoveView, sysserver.RemoveViewRequest{Handle: h}); err != nil {
			t.Errorf("removeView: %v", err)
		}
	}
	// The widget toggles a handful of times over a minute — heavy but
	// legitimate usage.
	for i := 0; i < 6; i++ {
		i := i
		st.Clock.MustAfter(time.Duration(i)*10*time.Second, "widget-on", func() { add(uint64(i + 1)) })
		st.Clock.MustAfter(time.Duration(i)*10*time.Second+5*time.Second, "widget-off", func() { remove(uint64(i + 1)) })
	}
	if err := st.Clock.RunFor(90 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if det.Detected(musicApp) {
		t.Fatal("benign overlay app flagged (false positive)")
	}
}

// TestDetectorIgnoresIMEChurn: the input method shows and hides windows on
// every focus change; it must not be flagged even under rapid focus churn.
func TestDetectorIgnoresIMEChurn(t *testing.T) {
	st := assemble(t)
	det, err := NewIPCDetector()
	if err != nil {
		t.Fatalf("NewIPCDetector: %v", err)
	}
	if err := det.Install(st, false); err != nil {
		t.Fatalf("Install: %v", err)
	}
	kb, err := keyboard.New(geom.RectWH(0, 1200, 1080, 720))
	if err != nil {
		t.Fatalf("keyboard.New: %v", err)
	}
	root := uikit.NewView("root", "FrameLayout", screenOf(st))
	act, err := uikit.NewActivity(st.Clock, "com.some.app", root)
	if err != nil {
		t.Fatalf("NewActivity: %v", err)
	}
	// Show/hide the IME every second for 20 s.
	for i := 0; i < 20; i++ {
		i := i
		st.Clock.MustAfter(time.Duration(i)*time.Second, "ime", func() {
			m, err := ime.Show(st, kb, act)
			if err != nil {
				t.Errorf("ime.Show: %v", err)
				return
			}
			st.Clock.MustAfter(500*time.Millisecond, "hide", func() {
				if err := m.Hide(); err != nil {
					t.Errorf("ime.Hide: %v", err)
				}
			})
		})
	}
	if err := st.Clock.RunFor(30 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if det.Detected(ime.Process) {
		t.Fatal("IME flagged (false positive)")
	}
}

// TestEnhancedNotificationDefenseDefeatsAttack is the Section VII-B
// validation: with t = 690 ms the overlay attack can no longer suppress
// the alert on the Pixel 2 — it reaches Λ5.
func TestEnhancedNotificationDefenseDefeatsAttack(t *testing.T) {
	st := assemble(t)
	st.Server.EnableEnhancedNotificationDefense(690 * time.Millisecond)
	d := time.Duration(float64(st.Profile.PaperUpperBoundD) * 0.85)
	atk, err := core.NewOverlayAttack(st, core.OverlayAttackConfig{App: evilApp, D: d, Bounds: screenOf(st)})
	if err != nil {
		t.Fatalf("NewOverlayAttack: %v", err)
	}
	if err := atk.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	st.Clock.MustAfter(10*time.Second, "stop", atk.Stop)
	if err := st.Clock.RunFor(15 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if got := st.UI.WorstOutcome(); got != sysui.Lambda5 {
		t.Fatalf("WorstOutcome = %v, want Λ5 (defense must defeat suppression)", got)
	}
}

// TestEnhancedDefenseNoFalseAlarm: with the defense on, an honest overlay
// app still gets a correct alert lifecycle (posted while shown, removed
// after).
func TestEnhancedDefenseNoFalseAlarm(t *testing.T) {
	st := assemble(t)
	st.Server.EnableEnhancedNotificationDefense(690 * time.Millisecond)
	const app binder.ProcessID = "com.maps.app"
	st.WM.GrantOverlayPermission(app)
	if _, err := st.Bus.Call(app, binder.SystemServer, sysserver.MethodAddView, sysserver.AddViewRequest{
		Handle: 1, Type: wm.TypeApplicationOverlay, Bounds: geom.RectWH(0, 0, 500, 500),
	}); err != nil {
		t.Fatalf("addView: %v", err)
	}
	st.Clock.MustAfter(5*time.Second, "rm", func() {
		if _, err := st.Bus.Call(app, binder.SystemServer, sysserver.MethodRemoveView, sysserver.RemoveViewRequest{Handle: 1}); err != nil {
			t.Errorf("removeView: %v", err)
		}
	})
	if err := st.Clock.RunFor(15 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	eps := st.UI.Episodes()
	if len(eps) != 1 {
		t.Fatalf("episodes = %d, want 1", len(eps))
	}
	if got := eps[0].Classify(); got != sysui.Lambda5 {
		t.Fatalf("honest overlay outcome = %v, want Λ5", got)
	}
	if eps[0].Active {
		t.Fatal("alert never removed after honest overlay removal")
	}
}

func TestDetectorDirectObservation(t *testing.T) {
	det, err := NewIPCDetector()
	if err != nil {
		t.Fatalf("NewIPCDetector: %v", err)
	}
	// Synthetic attack trace: swaps every 100 ms with 2 ms gaps.
	for i := 0; i < 10; i++ {
		at := time.Duration(i) * 100 * time.Millisecond
		det.Observe(binder.Transaction{From: "m", To: binder.SystemServer, Method: sysserver.MethodRemoveView, DeliveredAt: at})
		det.Observe(binder.Transaction{From: "m", To: binder.SystemServer, Method: sysserver.MethodAddView, DeliveredAt: at + 2*time.Millisecond})
	}
	if !det.Detected("m") {
		t.Fatal("synthetic attack trace not detected")
	}
	// Unrelated methods are not even observed.
	before := det.Observed()
	det.Observe(binder.Transaction{From: "x", To: binder.SystemServer, Method: "enqueueToast", DeliveredAt: time.Second})
	if det.Observed() != before {
		t.Fatal("toast transaction counted as overlay traffic")
	}
}

func TestInstallNilStack(t *testing.T) {
	det, err := NewIPCDetector()
	if err != nil {
		t.Fatalf("NewIPCDetector: %v", err)
	}
	if err := det.Install(nil, false); err == nil {
		t.Fatal("nil stack accepted")
	}
}

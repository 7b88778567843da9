package trace

import (
	"strings"
	"testing"
	"time"

	"repro/internal/binder"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/sysserver"
)

const evilApp binder.ProcessID = "com.evil.app"

func TestNewRecorderValidation(t *testing.T) {
	if _, err := NewRecorder("", 0); err == nil {
		t.Fatal("empty app accepted")
	}
	if _, err := NewRecorder("a", -1); err == nil {
		t.Fatal("negative limit accepted")
	}
	r, err := NewRecorder("a", 0)
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	if err := r.Attach(nil); err == nil {
		t.Fatal("nil stack accepted")
	}
}

// TestRecorderCapturesFig3Sequence runs one overlay-attack cycle and
// checks the timeline contains the Fig. 3 milestones in causal order:
// addView issued → received → window attached → notify draw → removeView
// received → window removed → notify remove.
func TestRecorderCapturesFig3Sequence(t *testing.T) {
	p, ok := device.Seed().ByModel("mi8")
	if !ok {
		t.Fatal("mi8 missing")
	}
	st, err := sysserver.Assemble(p, 3)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	st.WM.GrantOverlayPermission(evilApp)
	rec, err := NewRecorder(evilApp, 0)
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	if err := rec.Attach(st); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	atk, err := core.NewOverlayAttack(st, core.OverlayAttackConfig{
		App: evilApp, D: 150 * time.Millisecond,
		Bounds: geom.RectWH(0, 0, float64(p.ScreenW), float64(p.ScreenH)),
	})
	if err != nil {
		t.Fatalf("NewOverlayAttack: %v", err)
	}
	if err := atk.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	st.Clock.MustAfter(400*time.Millisecond, "stop", atk.Stop)
	if err := st.Clock.RunFor(2 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	entries := rec.Entries()
	if len(entries) < 8 {
		t.Fatalf("entries = %d, want a full cycle", len(entries))
	}
	// Chronological order.
	for i := 1; i < len(entries); i++ {
		if entries[i].At < entries[i-1].At {
			t.Fatal("entries not chronological")
		}
	}
	// The milestones appear, in causal order.
	milestones := []string{
		"addView() issued",
		"addView received",
		"overlay window #1 attached",
		"notify: draw notification view",
		"removeView received",
		"overlay window #1 removed",
		"notify: remove notification view",
	}
	pos := 0
	for _, m := range milestones {
		found := false
		for ; pos < len(entries); pos++ {
			if strings.Contains(entries[pos].Text, m) {
				found = true
				pos++
				break
			}
		}
		if !found {
			t.Fatalf("milestone %q missing or out of order\ntimeline:\n%s", m, rec.Render())
		}
	}
	// Render has the three lane headers.
	out := rec.Render()
	for _, h := range []string{"malicious app", "system server", "system ui"} {
		if !strings.Contains(out, h) {
			t.Fatalf("render missing lane %q", h)
		}
	}
}

// TestRecorderLimit caps the timeline.
func TestRecorderLimit(t *testing.T) {
	st, err := sysserver.Assemble(device.Seed().Default(), 5)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	st.WM.GrantOverlayPermission(evilApp)
	rec, err := NewRecorder(evilApp, 10)
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	if err := rec.Attach(st); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	atk, err := core.NewOverlayAttack(st, core.OverlayAttackConfig{
		App: evilApp, D: 50 * time.Millisecond,
		Bounds: geom.RectWH(0, 0, 1080, 1920),
	})
	if err != nil {
		t.Fatalf("NewOverlayAttack: %v", err)
	}
	if err := atk.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	st.Clock.MustAfter(5*time.Second, "stop", atk.Stop)
	if err := st.Clock.RunFor(8 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if got := len(rec.Entries()); got > 10 {
		t.Fatalf("entries = %d, limit 10", got)
	}
}

// TestRecorderIgnoresOtherApps: traffic from unrelated apps stays out.
func TestRecorderIgnoresOtherApps(t *testing.T) {
	st, err := sysserver.Assemble(device.Seed().Default(), 7)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	const other binder.ProcessID = "com.other.app"
	st.WM.GrantOverlayPermission(other)
	rec, err := NewRecorder(evilApp, 0)
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	if err := rec.Attach(st); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if _, err := st.Bus.Call(other, binder.SystemServer, sysserver.MethodAddView, sysserver.AddViewRequest{
		Handle: 1, Type: 3 /* overlay */, Bounds: geom.RectWH(0, 0, 100, 100),
	}); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if err := st.Clock.RunFor(time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	for _, e := range rec.Entries() {
		if strings.Contains(e.Text, "addView") && e.Lane == LaneApp {
			t.Fatalf("recorded other app's call: %+v", e)
		}
		if strings.Contains(e.Text, "window") {
			t.Fatalf("recorded other app's window: %+v", e)
		}
	}
}

package sysserver

import (
	"testing"
	"time"

	"repro/internal/binder"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/simclock"
	"repro/internal/simrand"
	"repro/internal/sysui"
	"repro/internal/wm"
)

const (
	evilApp   binder.ProcessID = "com.evil.app"
	victimApp binder.ProcessID = "com.bank.app"
)

func assemble(t *testing.T, p device.Profile) *Stack {
	t.Helper()
	st, err := Assemble(p, 42)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return st
}

func fullScreen(p device.Profile) geom.Rect {
	return geom.RectWH(0, 0, float64(p.ScreenW), float64(p.ScreenH))
}

func addOverlay(t *testing.T, st *Stack, handle uint64) {
	t.Helper()
	if _, err := st.Bus.Call(evilApp, binder.SystemServer, MethodAddView, AddViewRequest{
		Handle: handle,
		Type:   wm.TypeApplicationOverlay,
		Bounds: fullScreen(st.Profile),
	}); err != nil {
		t.Fatalf("addView: %v", err)
	}
}

func removeOverlay(t *testing.T, st *Stack, handle uint64) {
	t.Helper()
	if _, err := st.Bus.Call(evilApp, binder.SystemServer, MethodRemoveView, RemoveViewRequest{Handle: handle}); err != nil {
		t.Fatalf("removeView: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	st := assemble(t, device.Seed().Default())
	if _, err := New(Config{Bus: st.Bus, RNG: st.RNG, WM: st.WM}); err == nil {
		t.Fatal("nil clock accepted")
	}
	if _, err := New(Config{Clock: st.Clock, RNG: st.RNG, WM: st.WM}); err == nil {
		t.Fatal("nil bus accepted")
	}
	if _, err := New(Config{Clock: st.Clock, Bus: st.Bus, WM: st.WM}); err == nil {
		t.Fatal("nil rng accepted")
	}
	if _, err := New(Config{Clock: st.Clock, Bus: st.Bus, RNG: st.RNG}); err == nil {
		t.Fatal("nil wm accepted")
	}
}

func TestAssembleWiresEndpoints(t *testing.T) {
	st := assemble(t, device.Seed().Default())
	if st.Clock == nil || st.Bus == nil || st.WM == nil || st.Server == nil || st.UI == nil {
		t.Fatal("Assemble left nil components")
	}
	if got := st.WM.Screen(); got.W() != 1080 || got.H() != 1920 {
		t.Fatalf("screen = %v, want 1080x1920 (pixel 2)", got)
	}
}

// TestAddViewAttachesOverlayAndPostsAlert: a single long-lived overlay must
// attach and produce a Λ5 alert (the built-in defense working as designed).
func TestAddViewAttachesOverlayAndPostsAlert(t *testing.T) {
	st := assemble(t, device.Seed().Default())
	st.WM.GrantOverlayPermission(evilApp)
	addOverlay(t, st, 1)
	if err := st.Clock.RunFor(5 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if st.WM.OverlayCount(evilApp) != 1 {
		t.Fatalf("overlay count = %d, want 1", st.WM.OverlayCount(evilApp))
	}
	if got := st.Server.Stats().AddsCompleted; got != 1 {
		t.Fatalf("AddsCompleted = %d, want 1", got)
	}
	eps := st.UI.Episodes()
	if len(eps) != 1 {
		t.Fatalf("episodes = %d, want 1", len(eps))
	}
	if got := eps[0].Classify(); got != sysui.Lambda5 {
		t.Fatalf("outcome = %v, want Λ5", got)
	}
}

func TestAddViewWithoutPermissionRejected(t *testing.T) {
	st := assemble(t, device.Seed().Default())
	addOverlay(t, st, 1)
	if err := st.Clock.RunFor(time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if got := st.Server.Stats().AddsRejected; got != 1 {
		t.Fatalf("AddsRejected = %d, want 1", got)
	}
	if len(st.UI.Episodes()) != 0 {
		t.Fatal("alert posted for rejected overlay")
	}
}

func TestRemoveViewDetachesAndRemovesAlert(t *testing.T) {
	st := assemble(t, device.Seed().Default())
	st.WM.GrantOverlayPermission(evilApp)
	addOverlay(t, st, 1)
	st.Clock.MustAfter(2*time.Second, "rm", func() { removeOverlay(t, st, 1) })
	if err := st.Clock.RunFor(5 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if st.WM.OverlayCount(evilApp) != 0 {
		t.Fatalf("overlay count = %d, want 0", st.WM.OverlayCount(evilApp))
	}
	if st.UI.ActiveAlert(evilApp) {
		t.Fatal("alert still active after overlay removal")
	}
	if got := st.Server.Stats().RemovesCompleted; got != 1 {
		t.Fatalf("RemovesCompleted = %d, want 1", got)
	}
}

func TestRemoveUnknownHandleCounted(t *testing.T) {
	st := assemble(t, device.Seed().Default())
	removeOverlay(t, st, 77)
	if err := st.Clock.RunFor(time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if got := st.Server.Stats().RemovesUnknown; got != 1 {
		t.Fatalf("RemovesUnknown = %d, want 1", got)
	}
}

// TestRemoveRacingAddIsHonored: on a profile where Trm < Tam + Tas the
// removeView can reach the server before the addView finishes attaching;
// the server must then detach the window as soon as it attaches.
func TestRemoveRacingAddIsHonored(t *testing.T) {
	p := device.Seed().Default()
	p.Tam = simrand.Constant(10)
	p.Tas = simrand.Constant(20)
	p.Trm = simrand.Constant(1)
	st := assemble(t, p)
	st.WM.GrantOverlayPermission(evilApp)
	addOverlay(t, st, 1)
	removeOverlay(t, st, 1) // arrives at 1ms, long before attach at 30ms
	if err := st.Clock.RunFor(2 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if st.WM.OverlayCount(evilApp) != 0 {
		t.Fatalf("overlay count = %d, want 0 (remove-before-add honored)", st.WM.OverlayCount(evilApp))
	}
}

// TestANADelayDefersAlert: on Android 10 the alert must not reach System
// UI before the 100 ms ANA delay.
func TestANADelayDefersAlert(t *testing.T) {
	p, ok := device.Seed().ByModel("mi9") // Android 10
	if !ok {
		t.Fatal("mi9 profile missing")
	}
	st := assemble(t, p)
	st.WM.GrantOverlayPermission(evilApp)
	addOverlay(t, st, 1)
	if err := st.Clock.RunUntil(90 * time.Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(st.UI.Episodes()) != 0 {
		t.Fatal("alert posted before the ANA delay elapsed")
	}
	if err := st.Clock.RunFor(5 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if len(st.UI.Episodes()) != 1 {
		t.Fatalf("episodes = %d, want 1 after ANA delay", len(st.UI.Episodes()))
	}
}

// TestOverlayRemovedDuringANADelaySuppressesAlertEntirely: if the overlay
// vanishes while the post is held by the ANA delay, System UI never hears
// about it — the attack's best case on Android 10/11.
func TestOverlayRemovedDuringANADelaySuppressesAlertEntirely(t *testing.T) {
	st := assemble(t, device.Seed().Default()) // pixel 2, Android 11: 200ms ANA
	st.WM.GrantOverlayPermission(evilApp)
	addOverlay(t, st, 1)
	st.Clock.MustAfter(60*time.Millisecond, "rm", func() { removeOverlay(t, st, 1) })
	if err := st.Clock.RunFor(3 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if got := len(st.UI.Episodes()); got != 0 {
		t.Fatalf("episodes = %d, want 0 (post canceled inside ANA delay)", got)
	}
}

// TestEnhancedDefenseKeepsAlert: with the Section VII-B defense at
// t = 690 ms, a quick remove+re-add cycle must NOT remove the alert; it
// plays to Λ5 and the attack is defeated.
func TestEnhancedDefenseKeepsAlert(t *testing.T) {
	p, ok := device.Seed().ByModel("pixel 2")
	if !ok {
		t.Fatal("pixel 2 profile missing")
	}
	st := assemble(t, p)
	st.Server.EnableEnhancedNotificationDefense(690 * time.Millisecond)
	if got := st.Server.defenseDelay; got != 690*time.Millisecond {
		t.Fatalf("defense delay = %v", got)
	}
	st.WM.GrantOverlayPermission(evilApp)

	// Simulate the attack loop: add, wait D=300ms, swap overlays every D.
	const d = 300 * time.Millisecond
	addOverlay(t, st, 1)
	for i := 1; i <= 10; i++ {
		i := i
		st.Clock.MustAfter(time.Duration(i)*d, "swap", func() {
			removeOverlay(t, st, uint64((i+1)%2+1))
			addOverlay(t, st, uint64(i%2+1))
		})
	}
	if err := st.Clock.RunFor(10 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if got := st.UI.WorstOutcome(); got != sysui.Lambda5 {
		t.Fatalf("WorstOutcome = %v, want Λ5 (defense defeats suppression)", got)
	}
}

func TestEnhancedDefenseNegativeDelayClamped(t *testing.T) {
	st := assemble(t, device.Seed().Default())
	st.Server.EnableEnhancedNotificationDefense(-time.Second)
	if got := st.Server.defenseDelay; got != 0 {
		t.Fatalf("defense delay = %v, want 0", got)
	}
}

// TestDefenseDelayStillRemovesAfterHonestRemoval: the defense must not
// leak alerts — when the overlay is really gone, the alert goes away after
// the delay.
func TestDefenseDelayStillRemovesAfterHonestRemoval(t *testing.T) {
	st := assemble(t, device.Seed().Default())
	st.Server.EnableEnhancedNotificationDefense(690 * time.Millisecond)
	st.WM.GrantOverlayPermission(evilApp)
	addOverlay(t, st, 1)
	st.Clock.MustAfter(2*time.Second, "rm", func() { removeOverlay(t, st, 1) })
	if err := st.Clock.RunFor(10 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if st.UI.ActiveAlert(evilApp) {
		t.Fatal("alert never removed after honest overlay removal")
	}
}

// TestLatencyMappingUsesProfileDistributions is the calibration-wiring
// check: each Binder method must draw from the Fig. 3 distribution the
// paper names, or the whole timing story silently breaks.
func TestLatencyMappingUsesProfileDistributions(t *testing.T) {
	p := device.Seed().Default()
	// Give each distribution a distinct constant mean to identify it.
	p.Tam = simrand.Constant(11)
	p.Trm = simrand.Constant(22)
	p.ToastNotify = simrand.Constant(33)
	p.TnShow = simrand.Constant(44)
	p.TnRemove = simrand.Constant(55)
	fn := (&Stack{Profile: p}).latency
	tests := []struct {
		to     binder.ProcessID
		method string
		want   float64
	}{
		{binder.SystemServer, MethodAddView, 11},
		{binder.SystemServer, MethodRemoveView, 22},
		{binder.SystemServer, MethodEnqueueToast, 33},
		{binder.SystemServer, MethodCancelToast, 33},
		{binder.SystemUI, sysui.MethodPostOverlayAlert, 44},
		{binder.SystemUI, sysui.MethodRemoveOverlayAlert, 55},
		{binder.SystemServer, "somethingElse", 1},
	}
	for _, tt := range tests {
		if got := fn("app", tt.to, tt.method).Mean; got != tt.want {
			t.Errorf("latency(%s→%s) mean = %v, want %v", tt.to, tt.method, got, tt.want)
		}
	}
}

func TestMalformedPayloadsIgnored(t *testing.T) {
	st := assemble(t, device.Seed().Default())
	if _, err := st.Bus.Call(evilApp, binder.SystemServer, MethodAddView, "not-a-request"); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if err := st.Clock.RunFor(time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	s := st.Server.Stats()
	if s.AddsCompleted != 0 && s.AddsRejected != 0 {
		t.Fatalf("malformed payload processed: %+v", s)
	}
}

// TestStackResetClearsServer dirties a stack's server (toasts queued and
// showing under the toast-gap defense, an ANA-held alert post, a
// defense-delayed removal, attaches in flight, every override, a monitor
// and a fault plane), resets the stack unfaulted, and checks the server
// field by field against a freshly assembled one.
func TestStackResetClearsServer(t *testing.T) {
	p := device.Seed().Default()
	pl := faults.NewPlane(faults.Chaos(), 3)
	st, err := Assemble(p, 5, WithFaults(pl), WithMonitor())
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	s := st.Server
	st.WM.GrantOverlayPermission(evilApp)
	s.EnableEnhancedNotificationDefense(690 * time.Millisecond)
	s.EnableToastGapDefense(400 * time.Millisecond)
	s.SetANADelay(50 * time.Millisecond)
	s.SetToastFade(100 * time.Millisecond)
	s.SetToastCapOverride(60)
	for i := 0; i < 6; i++ {
		addOverlay(t, st, uint64(i%2+1))
		st.Clock.MustAfter(time.Duration(i)*80*time.Millisecond, "remove", func() {
			if _, err := st.Bus.Call(evilApp, binder.SystemServer, MethodRemoveView, RemoveViewRequest{Handle: uint64(i%2 + 1)}); err != nil {
				t.Errorf("removeView: %v", err)
			}
		})
	}
	if err := st.Clock.RunFor(3 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	addOverlay(t, st, 7)
	for i := 0; i < 100 && len(s.attaches) == 0; i++ {
		st.Clock.Step()
	}
	if s.toasts.nextToken == 0 || len(s.alerts) == 0 || len(s.attaches) == 0 {
		t.Fatalf("the dirty run queued %d toasts, made %d alert states and left %d attaches; want all three",
			s.toasts.nextToken, len(s.alerts), len(s.attaches))
	}
	if err := st.Reset(p, 5); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	fresh, err := Assemble(p, 5)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	f := fresh.Server
	if s != st.Server || s.monitor != nil || s.frameFault != nil || s.defenseDelay != f.defenseDelay ||
		s.anaDelay != f.anaDelay || s.toastFade != f.toastFade || s.toastGapDefense != f.toastGapDefense ||
		s.toastCapOverride != f.toastCapOverride || s.stats != f.stats || len(s.pendingRemoves) != 0 || len(s.attaches) != 0 {
		t.Fatal("Reset left a server setting or counter New does not")
	}
	for k, ids := range s.handles {
		if len(ids) != 0 {
			t.Fatalf("Reset left windows %v under handle %+v", ids, k)
		}
	}
	for app, a := range s.alerts {
		if a.posted || a.post != (simclock.Handle{}) || a.removal != (simclock.Handle{}) {
			t.Fatalf("Reset left %s's alert state %+v", app, a)
		}
	}
	tt := &s.toasts
	if tt.nextToken != 0 || len(tt.queue) != 0 || len(tt.perApp) != 0 || tt.current != nil || tt.displayed != 0 ||
		tt.curExpiry != (simclock.Handle{}) || tt.curExpire != nil || len(tt.nextAllowed) != 0 ||
		tt.retry != (simclock.Handle{}) || len(tt.records) != 0 {
		t.Fatal("Reset left toast state New does not")
	}
}

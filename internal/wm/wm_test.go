package wm

import (
	"cmp"
	"errors"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/binder"
	"repro/internal/geom"
	"repro/internal/simclock"
)

const (
	evilApp   binder.ProcessID = "com.evil.app"
	victimApp binder.ProcessID = "com.bank.app"
)

func screen() geom.Rect { return geom.RectWH(0, 0, 1080, 1920) }

func newMgr(t *testing.T) (*Manager, *simclock.Clock) {
	t.Helper()
	c := simclock.New()
	m, err := NewManager(c, screen())
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m, c
}

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager(nil, screen()); err == nil {
		t.Fatal("nil clock accepted")
	}
	if _, err := NewManager(simclock.New(), geom.Rect{}); err == nil {
		t.Fatal("empty screen accepted")
	}
}

func TestAddWindowValidation(t *testing.T) {
	m, _ := newMgr(t)
	if _, err := m.AddWindow(Spec{Type: TypeActivity, Bounds: screen()}); err == nil {
		t.Fatal("empty owner accepted")
	}
	if _, err := m.AddWindow(Spec{Owner: victimApp, Type: TypeActivity}); err == nil {
		t.Fatal("empty bounds accepted")
	}
	if _, err := m.AddWindow(Spec{Owner: victimApp, Type: WindowType(99), Bounds: screen()}); err == nil {
		t.Fatal("invalid type accepted")
	}
}

func TestOverlayRequiresPermission(t *testing.T) {
	m, _ := newMgr(t)
	spec := Spec{Owner: evilApp, Type: TypeApplicationOverlay, Bounds: screen()}
	if _, err := m.AddWindow(spec); !errors.Is(err, ErrNoPermission) {
		t.Fatalf("err = %v, want ErrNoPermission", err)
	}
	m.GrantOverlayPermission(evilApp)
	if !m.HasOverlayPermission(evilApp) {
		t.Fatal("permission not recorded")
	}
	if _, err := m.AddWindow(spec); err != nil {
		t.Fatalf("AddWindow after grant: %v", err)
	}
}

func TestLegacyToastRejected(t *testing.T) {
	m, _ := newMgr(t)
	_, err := m.AddWindow(Spec{Owner: evilApp, Type: TypeLegacyToast, Bounds: screen()})
	if !errors.Is(err, ErrTypeToastRemoved) {
		t.Fatalf("err = %v, want ErrTypeToastRemoved", err)
	}
}

func TestDirectToastAddRejected(t *testing.T) {
	m, _ := newMgr(t)
	if _, err := m.AddWindow(Spec{Owner: evilApp, Type: TypeToast, Bounds: screen()}); err == nil {
		t.Fatal("direct TypeToast add accepted; must go through NMS")
	}
	if _, err := m.AddToastWindow(Spec{Owner: evilApp, Bounds: screen()}); err != nil {
		t.Fatalf("AddToastWindow: %v", err)
	}
}

func TestOverlayCountTransitions(t *testing.T) {
	m, _ := newMgr(t)
	m.GrantOverlayPermission(evilApp)
	type change struct{ old, new int }
	var changes []change
	m.OnOverlayCountChange(func(app binder.ProcessID, old, new int) {
		if app == evilApp {
			changes = append(changes, change{old, new})
		}
	})
	id1, err := m.AddWindow(Spec{Owner: evilApp, Type: TypeApplicationOverlay, Bounds: screen()})
	if err != nil {
		t.Fatalf("AddWindow: %v", err)
	}
	id2, err := m.AddWindow(Spec{Owner: evilApp, Type: TypeApplicationOverlay, Bounds: screen()})
	if err != nil {
		t.Fatalf("AddWindow: %v", err)
	}
	if m.OverlayCount(evilApp) != 2 {
		t.Fatalf("OverlayCount = %d, want 2", m.OverlayCount(evilApp))
	}
	if err := m.RemoveWindow(id1); err != nil {
		t.Fatalf("RemoveWindow: %v", err)
	}
	if err := m.RemoveWindow(id2); err != nil {
		t.Fatalf("RemoveWindow: %v", err)
	}
	want := []change{{0, 1}, {1, 2}, {2, 1}, {1, 0}}
	if len(changes) != len(want) {
		t.Fatalf("changes = %v, want %v", changes, want)
	}
	for i := range want {
		if changes[i] != want[i] {
			t.Fatalf("changes = %v, want %v", changes, want)
		}
	}
	if m.OverlayCount(evilApp) != 0 {
		t.Fatalf("final count = %d, want 0", m.OverlayCount(evilApp))
	}
}

func TestRevokeRemovesOverlays(t *testing.T) {
	m, _ := newMgr(t)
	m.GrantOverlayPermission(evilApp)
	if _, err := m.AddWindow(Spec{Owner: evilApp, Type: TypeApplicationOverlay, Bounds: screen()}); err != nil {
		t.Fatalf("AddWindow: %v", err)
	}
	m.RevokeOverlayPermission(evilApp)
	if m.OverlayCount(evilApp) != 0 {
		t.Fatal("overlays survived permission revocation")
	}
	if m.HasOverlayPermission(evilApp) {
		t.Fatal("permission survived revocation")
	}
}

func TestZOrderLayering(t *testing.T) {
	m, _ := newMgr(t)
	m.GrantOverlayPermission(evilApp)
	if _, err := m.AddWindow(Spec{Owner: victimApp, Type: TypeActivity, Bounds: screen()}); err != nil {
		t.Fatalf("activity: %v", err)
	}
	if _, err := m.AddWindow(Spec{Owner: victimApp, Type: TypeInputMethod, Bounds: geom.RectWH(0, 1200, 1080, 720)}); err != nil {
		t.Fatalf("ime: %v", err)
	}
	ovID, err := m.AddWindow(Spec{Owner: evilApp, Type: TypeApplicationOverlay, Bounds: geom.RectWH(0, 1200, 1080, 720)})
	if err != nil {
		t.Fatalf("overlay: %v", err)
	}
	toastID, err := m.AddToastWindow(Spec{Owner: evilApp, Bounds: geom.RectWH(0, 1200, 1080, 720)})
	if err != nil {
		t.Fatalf("toast: %v", err)
	}
	// Visually the toast is on top.
	top, ok := m.TopWindowAt(geom.Pt(500, 1500), false)
	if !ok || top.ID != toastID {
		t.Fatalf("visual top = %+v, want toast %d", top, toastID)
	}
	// But the topmost *touchable* window is the overlay: the toast never
	// receives touches, so the attack's transparent overlay intercepts.
	top, ok = m.TopWindowAt(geom.Pt(500, 1500), true)
	if !ok || top.ID != ovID {
		t.Fatalf("touch top = %+v, want overlay %d", top, ovID)
	}
}

func TestNotTouchableOverlayPassesThrough(t *testing.T) {
	m, _ := newMgr(t)
	m.GrantOverlayPermission(evilApp)
	var victimEvents []TouchEvent
	if _, err := m.AddWindow(Spec{
		Owner: victimApp, Type: TypeActivity, Bounds: screen(),
		OnTouch: func(ev TouchEvent) { victimEvents = append(victimEvents, ev) },
	}); err != nil {
		t.Fatalf("activity: %v", err)
	}
	// Clickjacking overlay: visible but not touchable.
	if _, err := m.AddWindow(Spec{
		Owner: evilApp, Type: TypeApplicationOverlay, Bounds: screen(),
		Flags: FlagNotTouchable,
	}); err != nil {
		t.Fatalf("overlay: %v", err)
	}
	gid, top, ok := m.BeginGesture(geom.Pt(200, 300))
	if !ok || top.Owner != victimApp {
		t.Fatalf("gesture target = %+v, want victim activity", top)
	}
	if done, err := m.EndGesture(gid, geom.Pt(200, 300)); err != nil || !done {
		t.Fatalf("EndGesture = (%v,%v), want completed", done, err)
	}
	if len(victimEvents) != 2 || victimEvents[0].Action != ActionDown || victimEvents[1].Action != ActionUp {
		t.Fatalf("victim events = %v, want down+up", victimEvents)
	}
}

func TestGestureCanceledWhenWindowRemoved(t *testing.T) {
	m, c := newMgr(t)
	m.GrantOverlayPermission(evilApp)
	var events []TouchEvent
	id, err := m.AddWindow(Spec{
		Owner: evilApp, Type: TypeApplicationOverlay, Bounds: screen(),
		OnTouch: func(ev TouchEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatalf("AddWindow: %v", err)
	}
	gid, _, ok := m.BeginGesture(geom.Pt(100, 100))
	if !ok {
		t.Fatal("gesture missed overlay")
	}
	// Overlay removed mid-press (the draw-and-destroy swap).
	c.MustAfter(10*time.Millisecond, "swap", func() {
		if err := m.RemoveWindow(id); err != nil {
			t.Errorf("RemoveWindow: %v", err)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	done, err := m.EndGesture(gid, geom.Pt(100, 100))
	if err != nil {
		t.Fatalf("EndGesture: %v", err)
	}
	if done {
		t.Fatal("gesture completed despite window removal")
	}
	if len(events) != 2 || events[0].Action != ActionDown || events[1].Action != ActionCancel {
		t.Fatalf("events = %v, want down+cancel", events)
	}
	st := m.Stats()
	if st.Canceled != 1 || st.Completed != 0 {
		t.Fatalf("stats = %+v, want 1 canceled", st)
	}
}

func TestGestureMissWhenNoWindow(t *testing.T) {
	m, _ := newMgr(t)
	gid, _, ok := m.BeginGesture(geom.Pt(5, 5))
	if ok {
		t.Fatal("gesture found a window on an empty screen")
	}
	done, err := m.EndGesture(gid, geom.Pt(5, 5))
	if err != nil || done {
		t.Fatalf("EndGesture = (%v,%v), want (false,nil)", done, err)
	}
	if st := m.Stats(); st.Missed != 1 {
		t.Fatalf("Missed = %d, want 1", st.Missed)
	}
}

func TestEndGestureUnknownID(t *testing.T) {
	m, _ := newMgr(t)
	if _, err := m.EndGesture(12345, geom.Pt(0, 0)); err == nil {
		t.Fatal("unknown gesture accepted")
	}
}

func TestRemoveUnknownWindow(t *testing.T) {
	m, _ := newMgr(t)
	if err := m.RemoveWindow(999); !errors.Is(err, ErrUnknownWindow) {
		t.Fatalf("err = %v, want ErrUnknownWindow", err)
	}
}

func TestSetAlphaClamps(t *testing.T) {
	m, _ := newMgr(t)
	id, err := m.AddToastWindow(Spec{Owner: evilApp, Bounds: screen()})
	if err != nil {
		t.Fatalf("AddToastWindow: %v", err)
	}
	if err := m.SetAlpha(id, 2.5); err != nil {
		t.Fatalf("SetAlpha: %v", err)
	}
	if w, _ := m.Get(id); w.Alpha != 1 {
		t.Fatalf("alpha = %v, want clamp to 1", w.Alpha)
	}
	if err := m.SetAlpha(id, -1); err != nil {
		t.Fatalf("SetAlpha: %v", err)
	}
	if w, _ := m.Get(id); w.Alpha != 0 {
		t.Fatalf("alpha = %v, want clamp to 0", w.Alpha)
	}
	if err := m.SetAlpha(999, 0.5); err == nil {
		t.Fatal("SetAlpha on unknown window succeeded")
	}
}

func TestTopToastAlpha(t *testing.T) {
	m, _ := newMgr(t)
	if got := m.TopToastAlpha(evilApp); got != 0 {
		t.Fatalf("TopToastAlpha with no toasts = %v, want 0", got)
	}
	id1, err := m.AddToastWindow(Spec{Owner: evilApp, Bounds: screen()})
	if err != nil {
		t.Fatalf("toast1: %v", err)
	}
	id2, err := m.AddToastWindow(Spec{Owner: evilApp, Bounds: screen()})
	if err != nil {
		t.Fatalf("toast2: %v", err)
	}
	if err := m.SetAlpha(id1, 0.3); err != nil {
		t.Fatalf("SetAlpha: %v", err)
	}
	if err := m.SetAlpha(id2, 0.8); err != nil {
		t.Fatalf("SetAlpha: %v", err)
	}
	if got := m.TopToastAlpha(evilApp); got != 0.8 {
		t.Fatalf("TopToastAlpha = %v, want 0.8", got)
	}
	// Other apps' toasts don't count.
	if got := m.TopToastAlpha(victimApp); got != 0 {
		t.Fatalf("TopToastAlpha(victim) = %v, want 0", got)
	}
}

func TestWindowsOfAndCounts(t *testing.T) {
	m, _ := newMgr(t)
	m.GrantOverlayPermission(evilApp)
	for i := 0; i < 3; i++ {
		if _, err := m.AddWindow(Spec{Owner: evilApp, Type: TypeApplicationOverlay, Bounds: screen()}); err != nil {
			t.Fatalf("AddWindow: %v", err)
		}
	}
	if got := m.OverlayCount(evilApp); got != 3 {
		t.Fatalf("OverlayCount = %d, want 3", got)
	}
	if got := m.WindowCount(); got != 3 {
		t.Fatalf("WindowCount = %d, want 3", got)
	}
}

func TestAttachedAndGet(t *testing.T) {
	m, _ := newMgr(t)
	id, err := m.AddToastWindow(Spec{Owner: evilApp, Bounds: screen()})
	if err != nil {
		t.Fatalf("AddToastWindow: %v", err)
	}
	if !m.Attached(id) {
		t.Fatal("Attached = false for live window")
	}
	w, ok := m.Get(id)
	if !ok || w.Type != TypeToast || w.Owner != evilApp {
		t.Fatalf("Get = (%+v,%v)", w, ok)
	}
	if err := m.RemoveWindow(id); err != nil {
		t.Fatalf("RemoveWindow: %v", err)
	}
	if m.Attached(id) {
		t.Fatal("Attached = true after removal")
	}
	if _, ok := m.Get(id); ok {
		t.Fatal("Get found removed window")
	}
}

// Property: for any sequence of adds/removes, the per-app overlay count
// equals the number of attached overlay windows and never goes negative.
func TestPropertyOverlayCountConsistent(t *testing.T) {
	prop := func(ops []bool) bool {
		c := simclock.New()
		m, err := NewManager(c, screen())
		if err != nil {
			return false
		}
		m.GrantOverlayPermission(evilApp)
		var ids []WindowID
		for _, add := range ops {
			if add || len(ids) == 0 {
				id, err := m.AddWindow(Spec{Owner: evilApp, Type: TypeApplicationOverlay, Bounds: screen()})
				if err != nil {
					return false
				}
				ids = append(ids, id)
			} else {
				id := ids[len(ids)-1]
				ids = ids[:len(ids)-1]
				if err := m.RemoveWindow(id); err != nil {
					return false
				}
			}
			if m.OverlayCount(evilApp) != len(ids) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a touch is dispatched to exactly one window, and that window
// contains the point and is touchable.
func TestPropertyTouchTargetValid(t *testing.T) {
	prop := func(xs, ys []uint16) bool {
		c := simclock.New()
		m, err := NewManager(c, screen())
		if err != nil {
			return false
		}
		m.GrantOverlayPermission(evilApp)
		if _, err := m.AddWindow(Spec{Owner: victimApp, Type: TypeActivity, Bounds: screen()}); err != nil {
			return false
		}
		if _, err := m.AddWindow(Spec{Owner: evilApp, Type: TypeApplicationOverlay, Bounds: geom.RectWH(0, 960, 1080, 960)}); err != nil {
			return false
		}
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		for i := 0; i < n; i++ {
			p := geom.Pt(float64(xs[i])/65535*1079, float64(ys[i])/65535*1919)
			gid, top, ok := m.BeginGesture(p)
			if !ok {
				return false // screen fully covered by the activity
			}
			if !top.Bounds.Contains(p) || !top.Touchable() {
				return false
			}
			// Bottom half hits the overlay, top half the activity.
			if p.Y >= 960 && top.Owner != evilApp {
				return false
			}
			if p.Y < 960 && top.Owner != victimApp {
				return false
			}
			if done, err := m.EndGesture(gid, p); err != nil || !done {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyZOrderIsStableSort adds windows of random types at random
// times and removes random ones; after every operation the z-order must
// equal a stable sort of the attached windows by (layer, AddedAt, ID),
// which is what the insertion in attach must keep without sorting.
func TestPropertyZOrderIsStableSort(t *testing.T) {
	prop := func(ops []uint8) bool {
		m, c := newMgr(t)
		m.GrantOverlayPermission(evilApp)
		var ids []WindowID
		for _, op := range ops {
			if op&7 == 0 && len(ids) > 0 {
				k := int(op>>3) % len(ids)
				if m.RemoveWindow(ids[k]) != nil {
					return false
				}
				ids = append(ids[:k], ids[k+1:]...)
				continue
			}
			if err := c.RunFor(time.Duration(op>>6) * time.Millisecond); err != nil {
				return false
			}
			spec := Spec{Owner: evilApp, Type: []WindowType{TypeActivity, TypeInputMethod, TypeApplicationOverlay, TypeToast}[op>>1&3], Bounds: screen()}
			var id WindowID
			var err error
			if spec.Type == TypeToast {
				id, err = m.AddToastWindow(spec)
			} else {
				id, err = m.AddWindow(spec)
			}
			if err != nil {
				return false
			}
			ids = append(ids, id)
			want := m.ZOrder()
			slices.SortStableFunc(want, func(a, b Window) int {
				if c := cmp.Compare(a.Type.Layer(), b.Type.Layer()); c != 0 {
					return c
				}
				if c := cmp.Compare(a.AddedAt, b.AddedAt); c != 0 {
					return c
				}
				return cmp.Compare(a.ID, b.ID)
			})
			got := m.ZOrder()
			for i := range got {
				if got[i].ID != want[i].ID {
					return false
				}
			}
		}
		return m.WindowCount() == len(ids)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestResetMatchesNewManager dirties a manager (windows, a permission, an
// overlay count, a live gesture, listeners, a violation handler, stats),
// resets it and checks that it is indistinguishable from a new one.
func TestResetMatchesNewManager(t *testing.T) {
	m, c := newMgr(t)
	m.GrantOverlayPermission(evilApp)
	fired := false
	m.OnOverlayCountChange(func(binder.ProcessID, int, int) { fired = true })
	m.OnWindowEvent(func(WindowEvent) { fired = true })
	m.SetViolationHandler(func(string, string) { fired = true })
	if _, err := m.AddWindow(Spec{Owner: evilApp, Type: TypeApplicationOverlay, Bounds: screen(), OnTouch: func(TouchEvent) { fired = true }}); err != nil {
		t.Fatalf("AddWindow: %v", err)
	}
	m.BeginGesture(geom.Pt(10, 10))
	if err := c.RunFor(time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	c.Reset()
	small := geom.RectWH(0, 0, 720, 1280)
	if err := m.Reset(small); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	fired = false
	fresh, err := NewManager(c, small)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	if m.Screen() != fresh.Screen() || m.WindowCount() != 0 || m.OverlayCount(evilApp) != 0 ||
		m.HasOverlayPermission(evilApp) || m.Stats() != fresh.Stats() || len(m.gestures) != 0 ||
		len(m.countListeners) != 0 || len(m.windowListeners) != 0 || m.onViolation != nil {
		t.Fatal("Reset left state a new manager does not have")
	}
	if _, err := m.AddWindow(Spec{Owner: evilApp, Type: TypeApplicationOverlay, Bounds: small}); !errors.Is(err, ErrNoPermission) {
		t.Fatalf("overlay after Reset: err %v, want ErrNoPermission", err)
	}
	id, err := m.AddWindow(Spec{Owner: victimApp, Type: TypeActivity, Bounds: small})
	if err != nil || id != 1 {
		t.Fatalf("first window after Reset: id %d, err %v; want id 1", id, err)
	}
	if gid, _, _ := m.BeginGesture(geom.Pt(10, 10)); gid != 1 || fired {
		t.Fatalf("first gesture after Reset: id %d, old listeners fired %v", gid, fired)
	}
	if err := m.Reset(geom.Rect{}); err == nil {
		t.Fatal("Reset accepted an empty screen")
	}
}

// TestAttachRemoveAllocBudget: once the z-order has room, attaching and
// removing an overlay allocate nothing. Allocation counts do not drift
// with host speed.
func TestAttachRemoveAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	m, _ := newMgr(t)
	m.GrantOverlayPermission(evilApp)
	spec := Spec{Owner: evilApp, Type: TypeApplicationOverlay, Bounds: screen()}
	allocs := testing.AllocsPerRun(1000, func() {
		id, err := m.AddWindow(spec)
		if err != nil {
			t.Fatalf("AddWindow: %v", err)
		}
		if err := m.RemoveWindow(id); err != nil {
			t.Fatalf("RemoveWindow: %v", err)
		}
	})
	if allocs > 0 {
		t.Fatalf("attach + remove allocates %.1f times, budget 0", allocs)
	}
}

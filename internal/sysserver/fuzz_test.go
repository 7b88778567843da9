package sysserver

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/binder"
	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/simrand"
	"repro/internal/wm"
)

// TestPropertyProtocolQuiescence drives random add/remove/toast traffic
// from several apps and checks system-level invariants once the clock
// drains:
//
//   - every balanced add/remove pair leaves no window behind,
//   - the overlay alert is active exactly for apps with a standing
//     overlay,
//   - the per-app overlay count matches the attached overlay windows,
//   - nothing panics along the way.
func TestPropertyProtocolQuiescence(t *testing.T) {
	apps := []binder.ProcessID{"app.a", "app.b", "app.c"}
	prop := func(seed int64, ops []uint8) bool {
		st, err := Assemble(device.Seed().Default(), seed)
		if err != nil {
			return false
		}
		for _, app := range apps {
			st.WM.GrantOverlayPermission(app)
		}
		bounds := geom.RectWH(0, 0, 500, 500)
		// Track per-(app,handle) outstanding adds so we can balance.
		outstanding := make(map[viewKey]int)
		rng := simrand.New(seed)
		at := time.Duration(0)
		if len(ops) > 120 {
			ops = ops[:120]
		}
		for _, op := range ops {
			at += time.Duration(1+int(op%7)*37) * time.Millisecond
			app := apps[int(op)%len(apps)]
			handle := uint64(op%3 + 1)
			key := viewKey{app: app, handle: handle}
			switch (op / 3) % 4 {
			case 0, 1: // addView
				st.Clock.MustAfter(at, "fuzz/add", func() {
					if _, err := st.Bus.Call(app, binder.SystemServer, MethodAddView, AddViewRequest{
						Handle: handle, Type: wm.TypeApplicationOverlay, Bounds: bounds,
					}); err != nil {
						panic(err)
					}
				})
				outstanding[key]++
			case 2: // removeView (only if an add is outstanding)
				if outstanding[key] > 0 {
					outstanding[key]--
					st.Clock.MustAfter(at, "fuzz/remove", func() {
						if _, err := st.Bus.Call(app, binder.SystemServer, MethodRemoveView, RemoveViewRequest{Handle: handle}); err != nil {
							panic(err)
						}
					})
				}
			case 3: // enqueueToast
				st.Clock.MustAfter(at, "fuzz/toast", func() {
					if _, err := st.Bus.Call(app, binder.SystemServer, MethodEnqueueToast, EnqueueToastRequest{
						Duration: ToastShort, Bounds: bounds, Content: "x",
					}); err != nil {
						panic(err)
					}
				})
			}
			_ = rng
		}
		// Balance every remaining add with a remove at the end.
		for key, n := range outstanding {
			for i := 0; i < n; i++ {
				key := key
				at += 10 * time.Millisecond
				st.Clock.MustAfter(at, "fuzz/drain", func() {
					if _, err := st.Bus.Call(key.app, binder.SystemServer, MethodRemoveView, RemoveViewRequest{Handle: key.handle}); err != nil {
						panic(err)
					}
				})
			}
		}
		if err := st.Clock.RunFor(at + 60*time.Second); err != nil {
			return false
		}
		// Quiescence invariants.
		if st.WM.WindowCount() != 0 {
			t.Logf("windows left: %d", st.WM.WindowCount())
			return false
		}
		for _, app := range apps {
			if st.WM.OverlayCount(app) != 0 {
				t.Logf("%s overlay count %d", app, st.WM.OverlayCount(app))
				return false
			}
			if st.UI.ActiveAlert(app) {
				t.Logf("%s alert still active", app)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAlertMatchesOverlayPresence: at any quiescent instant, an
// app has an active alert if and only if it has a standing overlay (after
// the notification pipeline settles).
func TestPropertyAlertMatchesOverlayPresence(t *testing.T) {
	prop := func(seed int64, keepRaw uint8) bool {
		st, err := Assemble(device.Seed().Default(), seed)
		if err != nil {
			return false
		}
		const app binder.ProcessID = "app.x"
		st.WM.GrantOverlayPermission(app)
		keep := int(keepRaw%3) + 1 // overlays left standing
		for i := 0; i < keep+2; i++ {
			if _, err := st.Bus.Call(app, binder.SystemServer, MethodAddView, AddViewRequest{
				Handle: uint64(i + 1), Type: wm.TypeApplicationOverlay, Bounds: geom.RectWH(0, 0, 100, 100),
			}); err != nil {
				return false
			}
		}
		// Remove two of them after a while.
		st.Clock.MustAfter(2*time.Second, "rm", func() {
			for i := keep; i < keep+2; i++ {
				if _, err := st.Bus.Call(app, binder.SystemServer, MethodRemoveView, RemoveViewRequest{Handle: uint64(i + 1)}); err != nil {
					panic(err)
				}
			}
		})
		if err := st.Clock.RunFor(10 * time.Second); err != nil {
			return false
		}
		if st.WM.OverlayCount(app) != keep {
			return false
		}
		return st.UI.ActiveAlert(app) // overlays standing ⇒ alert present
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyToastChainAlwaysTerminates: any pattern of toast enqueues
// eventually drains — every shown toast disappears and no window leaks.
func TestPropertyToastChainAlwaysTerminates(t *testing.T) {
	prop := func(seed int64, pattern []uint8) bool {
		st, err := Assemble(device.Seed().Default(), seed)
		if err != nil {
			return false
		}
		if len(pattern) > 40 {
			pattern = pattern[:40]
		}
		at := time.Duration(0)
		for _, p := range pattern {
			at += time.Duration(int(p)%1500) * time.Millisecond
			dur := ToastShort
			if p%2 == 1 {
				dur = ToastLong
			}
			app := binder.ProcessID(fmt.Sprintf("app.%d", p%2))
			st.Clock.MustAfter(at, "toast", func() {
				if _, err := st.Bus.Call(app, binder.SystemServer, MethodEnqueueToast, EnqueueToastRequest{
					Duration: dur, Bounds: geom.RectWH(0, 0, 300, 300), Content: "t",
				}); err != nil {
					panic(err)
				}
			})
		}
		// Generous horizon: worst case all toasts serialized.
		horizon := at + time.Duration(len(pattern)+1)*(ToastLong+time.Second)
		if err := st.Clock.RunFor(horizon); err != nil {
			return false
		}
		if st.WM.WindowCount() != 0 {
			return false
		}
		for _, rec := range st.Server.Toasts() {
			if rec.GoneAt == 0 {
				return false
			}
			if rec.GoneAt <= rec.ShownAt {
				return false
			}
		}
		// Everything accepted was eventually shown (cap permitting).
		s := st.Server.Stats()
		return s.ToastsShown == s.ToastsEnqueued
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

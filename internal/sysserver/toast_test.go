package sysserver

import (
	"testing"
	"time"

	"repro/internal/binder"
	"repro/internal/device"
	"repro/internal/geom"
)

func toastBounds() geom.Rect { return geom.RectWH(40, 1400, 1000, 400) }

func showToast(t *testing.T, st *Stack, dur time.Duration, content string) {
	t.Helper()
	if _, err := st.Bus.Call(evilApp, binder.SystemServer, MethodEnqueueToast, EnqueueToastRequest{
		Duration: dur,
		Bounds:   toastBounds(),
		Content:  content,
	}); err != nil {
		t.Fatalf("enqueueToast: %v", err)
	}
}

func TestToastShowsAndExpires(t *testing.T) {
	st := assemble(t, device.Seed().Default())
	showToast(t, st, ToastShort, "hello")
	if err := st.Clock.RunFor(5 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	recs := st.Server.Toasts()
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1", len(recs))
	}
	r := recs[0]
	if r.App != evilApp || r.Content != "hello" {
		t.Fatalf("record = %+v", r)
	}
	if r.GoneAt == 0 {
		t.Fatal("toast never disappeared")
	}
	// On screen ≈ duration + fade-out (500 ms).
	onScreen := r.GoneAt - r.ShownAt
	if onScreen < ToastShort || onScreen > ToastShort+time.Second {
		t.Fatalf("on-screen time = %v, want ≈2.5s", onScreen)
	}
	if st.WM.WindowCount() != 0 {
		t.Fatalf("windows left attached: %d", st.WM.WindowCount())
	}
}

func TestToastDurationNormalized(t *testing.T) {
	st := assemble(t, device.Seed().Default())
	showToast(t, st, 30*time.Second, "greedy") // not a legal constant
	if err := st.Clock.RunFor(10 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	recs := st.Server.Toasts()
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1", len(recs))
	}
	if onScreen := recs[0].GoneAt - recs[0].ShownAt; onScreen > 3*time.Second {
		t.Fatalf("on-screen time = %v; duration not normalized to LENGTH_SHORT", onScreen)
	}
}

func TestToastEmptyBoundsRejected(t *testing.T) {
	st := assemble(t, device.Seed().Default())
	if _, err := st.Bus.Call(evilApp, binder.SystemServer, MethodEnqueueToast, EnqueueToastRequest{
		Duration: ToastShort,
	}); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if err := st.Clock.RunFor(time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if got := st.Server.Stats().ToastsRejected; got != 1 {
		t.Fatalf("ToastsRejected = %d, want 1", got)
	}
}

// TestToastsSerialized: two toasts enqueued together must display one
// after the other, not concurrently (the Android 8 anti-overlap defense).
func TestToastsSerialized(t *testing.T) {
	st := assemble(t, device.Seed().Default())
	showToast(t, st, ToastShort, "one")
	showToast(t, st, ToastShort, "two")
	if err := st.Clock.RunFor(15 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	recs := st.Server.Toasts()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	if recs[0].Content != "one" || recs[1].Content != "two" {
		t.Fatalf("display order = %q,%q; want FIFO", recs[0].Content, recs[1].Content)
	}
	// The second toast starts only after the first's on-screen phase
	// (but may overlap its fade-out).
	if recs[1].ShownAt < recs[0].ShownAt+ToastShort {
		t.Fatalf("second toast at %v overlapped first's on-screen phase (first shown %v)",
			recs[1].ShownAt, recs[0].ShownAt)
	}
}

// TestToastHandoffOverlapsFade: the successor toast must attach while the
// predecessor is still fading out, so the combined on-screen alpha never
// collapses — the property the draw-and-destroy toast attack needs.
func TestToastHandoffOverlapsFade(t *testing.T) {
	st := assemble(t, device.Seed().Default())
	showToast(t, st, ToastShort, "a")
	showToast(t, st, ToastShort, "b")
	if err := st.Clock.RunFor(15 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	recs := st.Server.Toasts()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	firstFadeEnd := recs[0].GoneAt
	if recs[1].ShownAt >= firstFadeEnd {
		t.Fatalf("no overlap: second shown at %v, first gone at %v", recs[1].ShownAt, firstFadeEnd)
	}
	// The gap between on-screen end of A and attach of B is the toast
	// creation time (~15 ms), far less than the 500 ms fade.
	gap := recs[1].ShownAt - (recs[0].ShownAt + ToastShort)
	if gap <= 0 || gap > 100*time.Millisecond {
		t.Fatalf("handoff gap = %v, want small positive (toast creation time)", gap)
	}
}

func TestToastPerAppCap(t *testing.T) {
	st := assemble(t, device.Seed().Default())
	for i := 0; i < 60; i++ {
		showToast(t, st, ToastShort, "spam")
	}
	if err := st.Clock.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	s := st.Server.Stats()
	if s.ToastsRejected == 0 {
		t.Fatal("no toasts rejected despite exceeding the 50-token cap")
	}
	if s.ToastsEnqueued > MaxToastTokensPerApp+1 {
		// +1: the first token may already have left the queue for display
		// before the last enqueue arrives.
		t.Fatalf("ToastsEnqueued = %d, want ≤ %d", s.ToastsEnqueued, MaxToastTokensPerApp+1)
	}
	if got := st.Server.QueuedToasts(evilApp); got > MaxToastTokensPerApp {
		t.Fatalf("queued = %d, exceeds cap", got)
	}
}

func TestToastCapIsPerApp(t *testing.T) {
	st := assemble(t, device.Seed().Default())
	for i := 0; i < MaxToastTokensPerApp; i++ {
		showToast(t, st, ToastShort, "evil")
	}
	if _, err := st.Bus.Call(victimApp, binder.SystemServer, MethodEnqueueToast, EnqueueToastRequest{
		Duration: ToastShort,
		Bounds:   toastBounds(),
		Content:  "victim",
	}); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if err := st.Clock.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if got := st.Server.Stats().ToastsRejected; got != 0 {
		t.Fatalf("ToastsRejected = %d; other app's token must not count against the cap", got)
	}
}

// TestToastAlphaNeverCollapsesDuringAttackChain: enqueue a chain of toasts
// the way the attack does and sample the app's max toast alpha at frame
// granularity; after the first fade-in it must stay high.
func TestToastAlphaNeverCollapsesDuringAttackChain(t *testing.T) {
	st := assemble(t, device.Seed().Default())
	// Keep the queue fed: one toast every 3 s with 3.5 s duration.
	for i := 0; i < 5; i++ {
		at := time.Duration(i) * 3 * time.Second
		st.Clock.MustAfter(at, "enqueue", func() { showToast(t, st, ToastLong, "kbd") })
	}
	minAlpha := 2.0
	var sample func()
	sample = func() {
		if st.Clock.Now() > 14*time.Second {
			return
		}
		if a := st.WM.TopToastAlpha(evilApp); a < minAlpha {
			minAlpha = a
		}
		st.Clock.MustAfter(10*time.Millisecond, "sample", sample)
	}
	// Start sampling after the first fade-in completes (~600 ms).
	st.Clock.MustAfter(700*time.Millisecond, "sample", sample)
	if err := st.Clock.RunFor(20 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	// Across 4 toast hand-offs the combined alpha dips only to the
	// crossover of the two 500 ms fades (~0.7) — and both toasts render
	// the same content over an identically laid-out real keyboard, so
	// the dip is imperceptible. What would be perceptible, and what the
	// Android defense aims for, is a collapse to ≈0 between toasts.
	if minAlpha < 0.5 {
		t.Fatalf("toast alpha collapsed to %.3f during hand-offs; attack would flicker", minAlpha)
	}
}

// TestToastGapWithEmptyQueueIsVisible: without a queued successor the
// toast disappears completely — the flicker the attack avoids by keeping
// the queue fed.
func TestToastGapWithEmptyQueueIsVisible(t *testing.T) {
	st := assemble(t, device.Seed().Default())
	showToast(t, st, ToastShort, "one")
	// The successor arrives 1.5 s after the first is fully gone.
	st.Clock.MustAfter(4*time.Second, "late", func() { showToast(t, st, ToastShort, "two") })
	sawZero := false
	var sample func()
	sample = func() {
		if st.Clock.Now() > 4*time.Second {
			return
		}
		if st.Clock.Now() > 3*time.Second && st.WM.TopToastAlpha(evilApp) == 0 {
			sawZero = true
		}
		st.Clock.MustAfter(10*time.Millisecond, "sample", sample)
	}
	st.Clock.MustAfter(time.Second, "sample", sample)
	if err := st.Clock.RunFor(10 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if !sawZero {
		t.Fatal("toast never fully disappeared despite an empty queue")
	}
}

// TestCancelToastRetiresEarlyAndShowsNext: cancel retires the current
// toast immediately and the next queued token (of another app) displays.
func TestCancelToastRetiresEarlyAndShowsNext(t *testing.T) {
	st := assemble(t, device.Seed().Default())
	showToast(t, st, ToastLong, "kbd-lower")
	if _, err := st.Bus.Call(victimApp, binder.SystemServer, MethodEnqueueToast, EnqueueToastRequest{
		Duration: ToastShort, Bounds: toastBounds(), Content: "other",
	}); err != nil {
		t.Fatalf("Call: %v", err)
	}
	// Cancel at 500ms, long before the 3.5s duration.
	st.Clock.MustAfter(500*time.Millisecond, "cancel", func() {
		if _, err := st.Bus.Call(evilApp, binder.SystemServer, MethodCancelToast, CancelToastRequest{}); err != nil {
			t.Errorf("cancel: %v", err)
		}
	})
	if err := st.Clock.RunFor(10 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	recs := st.Server.Toasts()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	// The canceled toast left early (shown ~15ms, canceled ~500ms, fade
	// 500ms ⇒ gone ≈1s, far less than 3.5s+fade).
	if onScreen := recs[0].GoneAt - recs[0].ShownAt; onScreen > 2*time.Second {
		t.Fatalf("canceled toast stayed %v", onScreen)
	}
	// The successor shows shortly after the cancel.
	if recs[1].ShownAt > 700*time.Millisecond {
		t.Fatalf("successor shown at %v, want shortly after cancel", recs[1].ShownAt)
	}
}

// TestCancelToastDropsQueuedTokens: queued tokens of the canceling app are
// discarded.
func TestCancelToastDropsQueuedTokens(t *testing.T) {
	st := assemble(t, device.Seed().Default())
	for i := 0; i < 5; i++ {
		showToast(t, st, ToastShort, "spam")
	}
	st.Clock.MustAfter(300*time.Millisecond, "cancel", func() {
		if _, err := st.Bus.Call(evilApp, binder.SystemServer, MethodCancelToast, CancelToastRequest{}); err != nil {
			t.Errorf("cancel: %v", err)
		}
	})
	if err := st.Clock.RunFor(30 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	// Only the first toast ever displayed.
	if got := len(st.Server.Toasts()); got != 1 {
		t.Fatalf("displayed %d toasts, want 1 (queue dropped)", got)
	}
	if got := st.Server.QueuedToasts(evilApp); got != 0 {
		t.Fatalf("queued = %d, want 0", got)
	}
}

// TestToastGapDefenseForcesFlicker: with the Section VII-B toast-gap
// defense on, a fed toast chain must go fully invisible between toasts.
func TestToastGapDefenseForcesFlicker(t *testing.T) {
	st := assemble(t, device.Seed().Default())
	st.Server.EnableToastGapDefense(400 * time.Millisecond)
	if got := st.Server.toastGapDefense; got != 400*time.Millisecond {
		t.Fatalf("toast gap = %v", got)
	}
	// Attack-style chain: keep the queue fed.
	for i := 0; i < 4; i++ {
		at := time.Duration(i) * 3 * time.Second
		st.Clock.MustAfter(at, "enqueue", func() { showToast(t, st, ToastLong, "kbd") })
	}
	minAlpha := 2.0
	var sample func()
	sample = func() {
		if st.Clock.Now() > 12*time.Second {
			return
		}
		if a := st.WM.TopToastAlpha(evilApp); a < minAlpha {
			minAlpha = a
		}
		st.Clock.MustAfter(10*time.Millisecond, "sample", sample)
	}
	st.Clock.MustAfter(700*time.Millisecond, "sample", sample)
	if err := st.Clock.RunFor(30 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if minAlpha != 0 {
		t.Fatalf("min alpha = %.2f, want 0 (the defense must force a visible gap)", minAlpha)
	}
	// All four toasts still display eventually (no starvation).
	if got := len(st.Server.Toasts()); got != 4 {
		t.Fatalf("displayed %d toasts, want 4", got)
	}
}

// TestToastGapDefenseDoesNotDelayOtherApps: the gap is per app; another
// app's toast shows immediately after the slot frees.
func TestToastGapDefenseDoesNotDelayOtherApps(t *testing.T) {
	st := assemble(t, device.Seed().Default())
	st.Server.EnableToastGapDefense(2 * time.Second)
	showToast(t, st, ToastShort, "evil-1")
	if _, err := st.Bus.Call(victimApp, binder.SystemServer, MethodEnqueueToast, EnqueueToastRequest{
		Duration: ToastShort, Bounds: toastBounds(), Content: "other",
	}); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if err := st.Clock.RunFor(15 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	recs := st.Server.Toasts()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	// The other app's toast starts right after evil-1's on-screen phase,
	// unaffected by evil's gap.
	if recs[1].App != victimApp {
		t.Fatalf("second toast from %s", recs[1].App)
	}
	if recs[1].ShownAt > recs[0].ShownAt+ToastShort+200*time.Millisecond {
		t.Fatalf("other app's toast delayed to %v", recs[1].ShownAt)
	}
	if st.Server.toastGapDefense != 2*time.Second {
		t.Fatal("defense setting lost")
	}
}

// TestToastGapDefenseNegativeClamped: negative gaps disable the defense.
func TestToastGapDefenseNegativeClamped(t *testing.T) {
	st := assemble(t, device.Seed().Default())
	st.Server.EnableToastGapDefense(-time.Second)
	if got := st.Server.toastGapDefense; got != 0 {
		t.Fatalf("toast gap = %v, want 0", got)
	}
}

// TestToastSlotBusy: a toast holds the queue's on-screen slot from show
// until it expires.
func TestToastSlotBusy(t *testing.T) {
	st := assemble(t, device.Seed().Default())
	busy := func() bool { return st.Server.toasts.current != nil }
	if busy() {
		t.Fatal("slot busy before any toast")
	}
	showToast(t, st, ToastShort, "x")
	if err := st.Clock.RunUntil(time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if !busy() {
		t.Fatal("slot not busy while toast on screen")
	}
	if err := st.Clock.RunFor(5 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if busy() {
		t.Fatal("slot busy after toast expired")
	}
}

package invariant_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/binder"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/invariant"
	"repro/internal/simclock"
	"repro/internal/sysserver"
)

// TestOverlayCountViolationDirect: seeding a breach through the exported
// listener records a violation naming the rule, the app and the bad count.
func TestOverlayCountViolationDirect(t *testing.T) {
	clock := simclock.New()
	m := invariant.New(clock)
	m.Note("wm:add com.evil.app OVERLAY#1")
	m.OverlayCountChanged("com.evil.app", 0, -1)
	if m.Clean() {
		t.Fatal("negative overlay count not reported")
	}
	vs := m.Violations()
	if len(vs) != 1 || vs[0].Rule != invariant.RuleOverlayCount {
		t.Fatalf("violations = %+v, want one %s", vs, invariant.RuleOverlayCount)
	}
	if !strings.Contains(vs[0].Detail, "com.evil.app") || !strings.Contains(vs[0].Detail, "-1") {
		t.Fatalf("detail %q missing app or count", vs[0].Detail)
	}
	if len(vs[0].Trace) == 0 {
		t.Fatal("violation carries no trace context")
	}
	// A positive transition is fine.
	m.OverlayCountChanged("com.evil.app", -1, 0)
	if m.Count() != 1 {
		t.Fatalf("recovery reported as a violation: count %d", m.Count())
	}
}

// TestToastSerializationViolationDirect: two concurrently displayed toasts
// breach the Android 8 one-toast-at-a-time rule.
func TestToastSerializationViolationDirect(t *testing.T) {
	m := invariant.New(simclock.New())
	m.ToastDisplayed(1)
	if !m.Clean() {
		t.Fatalf("single displayed toast flagged: %s", m.String())
	}
	m.ToastDisplayed(2)
	vs := m.Violations()
	if len(vs) != 1 || vs[0].Rule != invariant.RuleToastSerialized {
		t.Fatalf("violations = %+v, want one %s", vs, invariant.RuleToastSerialized)
	}
}

// TestToastQueueCapViolationSeeded drives the REAL stack into a breach: the
// cap override lets one app hold more than the platform's 50 queued toast
// tokens, and the monitor attached by WithMonitor must catch each enqueue
// past the cap with a trace of the surrounding toast traffic.
func TestToastQueueCapViolationSeeded(t *testing.T) {
	st, err := sysserver.Assemble(device.Seed().Default(), 1, sysserver.WithMonitor())
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if st.Monitor == nil {
		t.Fatal("WithMonitor left Stack.Monitor nil")
	}
	// Loosen the enforcement point so the queue can actually exceed the
	// invariant's cap of 50.
	st.Server.SetToastCapOverride(60)
	bounds := geom.RectWH(100, 100, 300, 80)
	const flood = 60
	for i := 0; i < flood; i++ {
		if _, err := st.Bus.Call("com.evil.app", binder.SystemServer, sysserver.MethodEnqueueToast,
			sysserver.EnqueueToastRequest{Duration: sysserver.ToastShort, Bounds: bounds, Content: "flood"}); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if err := st.Clock.RunFor(2 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if st.Monitor.Clean() {
		t.Fatal("60 queued toast tokens for one app breached no invariant")
	}
	capViolations := 0
	for _, v := range st.Monitor.Violations() {
		if v.Rule != invariant.RuleToastQueueCap {
			t.Fatalf("unexpected violation %s: %s", v.Rule, v.Detail)
		}
		if !strings.Contains(v.Detail, "com.evil.app") {
			t.Fatalf("violation does not name the offending app: %s", v.Detail)
		}
		if len(v.Trace) == 0 {
			t.Fatalf("violation carries no trace: %s", v)
		}
		capViolations++
	}
	// Enqueues 52..60 all land while the first toast is still being shown
	// (delivery latency is milliseconds, display is seconds), so depths
	// 51..59 after the head pop each breach the cap.
	if capViolations < 5 {
		t.Fatalf("only %d toast-queue-cap violations for a 60-token flood", capViolations)
	}
	if !strings.Contains(st.Monitor.String(), invariant.RuleToastQueueCap) {
		t.Fatalf("rendered report missing the rule name:\n%s", st.Monitor.String())
	}
}

// TestMonitorCleanOnHealthyRun is the other direction: ordinary toast
// traffic inside the cap breaches nothing.
func TestMonitorCleanOnHealthyRun(t *testing.T) {
	st, err := sysserver.Assemble(device.Seed().Default(), 2, sysserver.WithMonitor())
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	bounds := geom.RectWH(100, 100, 300, 80)
	for i := 0; i < 10; i++ {
		if _, err := st.Bus.Call("com.ok.app", binder.SystemServer, sysserver.MethodEnqueueToast,
			sysserver.EnqueueToastRequest{Duration: sysserver.ToastShort, Bounds: bounds, Content: "ok"}); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if err := st.Clock.RunFor(40 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if !st.Monitor.Clean() {
		t.Fatalf("healthy run breached invariants:\n%s", st.Monitor.String())
	}
	if got := st.Monitor.String(); got != "invariants: all checks passed" {
		t.Fatalf("clean render = %q", got)
	}
}

// TestMonitorCleanUnderChaosFaults: the fault plane degrades delivery and
// timing but must never break platform invariants — drops, duplicates,
// delays and toast pressure all stay inside the stack's own rules. A full
// chaos-faulted run under the monitor completes with a clean bill.
func TestMonitorCleanUnderChaosFaults(t *testing.T) {
	prof := faults.Chaos()
	st, err := sysserver.Assemble(device.Seed().Default(), 3,
		sysserver.WithMonitor(), sysserver.WithFaults(faults.NewPlane(prof, 3)))
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	bounds := geom.RectWH(100, 100, 300, 80)
	for i := 0; i < 30; i++ {
		if _, err := st.Bus.Call("com.app", binder.SystemServer, sysserver.MethodEnqueueToast,
			sysserver.EnqueueToastRequest{Duration: sysserver.ToastShort, Bounds: bounds, Content: "x"}); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	// Bounded run: the toast-pressure pump keeps the event queue non-empty.
	if err := st.Clock.RunFor(30 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if st.Faults == nil || st.Faults.Stats().Zero() {
		t.Fatal("chaos profile injected nothing — the run exercised no faults")
	}
	if !st.Monitor.Clean() {
		t.Fatalf("fault plane broke platform invariants:\n%s", st.Monitor.String())
	}
}

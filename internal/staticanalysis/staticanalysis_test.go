package staticanalysis

import (
	"strings"
	"testing"

	"repro/internal/dexir"
)

// analyze runs the default detector suite over one app at Tier0, the
// paper-baseline configuration.
func analyze(app *dexir.App) Result { return AnalyzeTier(app, Tier0) }

// buildApp assembles a one-class app with the given methods and component
// entry points; perms and kind configure the manifest side.
func buildApp(pkg string, perms []string, kind dexir.ComponentKind, entries []dexir.MethodRef, methods []dexir.Method) *dexir.App {
	cls := dexir.ClassName(pkg, "Main")
	return &dexir.App{
		Package:     pkg,
		Permissions: perms,
		Components:  []dexir.Component{{Name: cls, Kind: kind, EntryPoints: entries}},
		Classes:     []dexir.Class{{Name: cls, Methods: methods}},
	}
}

func saw() []string { return []string{dexir.PermSystemAlertWindow} }

// attackApp is the canonical draw-and-destroy app: onCreate registers a
// self-re-enqueueing swap callback that adds and removes overlays.
func attackApp() *dexir.App {
	cls := dexir.ClassName("com.evil", "Main")
	onCreate := dexir.Ref(cls, "onCreate", "(Landroid/os/Bundle;)V")
	swap := dexir.Ref(cls, "swap", "()V")
	return buildApp("com.evil", saw(), dexir.Activity, []dexir.MethodRef{onCreate}, []dexir.Method{
		{Ref: onCreate, Body: []dexir.Instruction{
			{Op: dexir.OpRegisterCallback, Target: dexir.RefHandlerPostDelayed, Callback: swap},
		}},
		{Ref: swap, Body: []dexir.Instruction{
			{Op: dexir.OpInvoke, Target: dexir.RefAddView, InLoop: true},
			{Op: dexir.OpInvoke, Target: dexir.RefRemoveView, InLoop: true},
			{Op: dexir.OpRegisterCallback, Target: dexir.RefHandlerPostDelayed, Callback: swap},
		}},
	})
}

func TestDrawAndDestroyDetected(t *testing.T) {
	res := analyze(attackApp())
	if !res.DrawAndDestroy {
		t.Fatal("attack app not detected")
	}
	if len(res.Findings) == 0 {
		t.Fatal("no findings")
	}
	f := res.Findings[0]
	if f.Capability != CapDrawAndDestroy {
		t.Fatalf("capability = %v", f.Capability)
	}
	if !f.LoopContext || !f.HandlerContext {
		t.Fatalf("context flags = loop:%v handler:%v, want both", f.LoopContext, f.HandlerContext)
	}
	// Evidence trace must name the path and the sink.
	var sawTrace bool
	for _, e := range f.Evidence {
		s := e.String()
		if strings.Contains(s, "onCreate") && strings.Contains(s, "swap") && strings.Contains(s, "addView") {
			sawTrace = true
		}
	}
	if !sawTrace {
		t.Fatalf("no onCreate→swap⇒addView trace in %v", f.Evidence)
	}
}

// TestNoSAWNoDrawAndDestroy: the same bytecode without the permission is
// not the capability (in-app window management).
func TestNoSAWNoDrawAndDestroy(t *testing.T) {
	app := attackApp()
	app.Permissions = nil
	if res := analyze(app); res.DrawAndDestroy {
		t.Fatal("capability without SYSTEM_ALERT_WINDOW")
	}
}

// TestDeadCodeNotReachable: add/remove invokes in a method no entry point
// reaches must not fire the detector, even though the refs sit in the
// method-reference table (where grep finds them).
func TestDeadCodeNotReachable(t *testing.T) {
	cls := dexir.ClassName("com.dead", "Main")
	onCreate := dexir.Ref(cls, "onCreate", "(Landroid/os/Bundle;)V")
	deadLib := dexir.Ref(cls, "unusedSdkHelper", "()V")
	app := buildApp("com.dead", saw(), dexir.Activity, []dexir.MethodRef{onCreate}, []dexir.Method{
		{Ref: onCreate, Body: []dexir.Instruction{{Op: dexir.OpNop}}},
		{Ref: deadLib, Body: []dexir.Instruction{
			{Op: dexir.OpInvoke, Target: dexir.RefAddView},
			{Op: dexir.OpInvoke, Target: dexir.RefRemoveView},
		}},
	})
	if res := analyze(app); res.DrawAndDestroy {
		t.Fatal("dead code classified as capability")
	}
	// The grep view disagrees: both refs are in the table.
	table := app.MethodRefTable()
	joined := strings.Join(table, "\n")
	if !strings.Contains(joined, string(dexir.RefAddView)) || !strings.Contains(joined, string(dexir.RefRemoveView)) {
		t.Fatalf("ref table missing dead refs: %v", table)
	}
}

// TestReflectiveReachable: overlay calls dispatched via resolvable
// reflection are invisible to the ref table but detected by the analyzer.
func TestReflectiveReachable(t *testing.T) {
	cls := dexir.ClassName("com.refl", "Main")
	onCreate := dexir.Ref(cls, "onCreate", "(Landroid/os/Bundle;)V")
	app := buildApp("com.refl", saw(), dexir.Activity, []dexir.MethodRef{onCreate}, []dexir.Method{
		{Ref: onCreate, Body: []dexir.Instruction{
			{Op: dexir.OpConstString, Str: "android.view.WindowManager"},
			{Op: dexir.OpConstString, Str: "addView"},
			{Op: dexir.OpReflectInvoke},
			{Op: dexir.OpConstString, Str: "android.view.WindowManager"},
			{Op: dexir.OpConstString, Str: "removeView"},
			{Op: dexir.OpReflectInvoke},
		}},
	})
	res := analyze(app)
	if !res.DrawAndDestroy {
		t.Fatal("reflective capability missed")
	}
	if joined := strings.Join(app.MethodRefTable(), "\n"); strings.Contains(joined, string(dexir.RefAddView)) {
		t.Fatal("reflective target leaked into ref table")
	}
	var reflective bool
	for _, f := range res.Findings {
		for _, e := range f.Evidence {
			if e.Reflective {
				reflective = true
			}
		}
	}
	if !reflective {
		t.Fatal("evidence not flagged reflective")
	}
}

// TestUnresolvableReflectionOpaque: strings built at runtime resolve to
// nothing; the analyzer (correctly, conservatively) reports no capability.
func TestUnresolvableReflectionOpaque(t *testing.T) {
	cls := dexir.ClassName("com.deep", "Main")
	onCreate := dexir.Ref(cls, "onCreate", "(Landroid/os/Bundle;)V")
	app := buildApp("com.deep", saw(), dexir.Activity, []dexir.MethodRef{onCreate}, []dexir.Method{
		{Ref: onCreate, Body: []dexir.Instruction{
			{Op: dexir.OpConstString, Str: "android.view.Window" /* truncated: assembled at runtime */},
			{Op: dexir.OpConstString, Str: "addVi"},
			{Op: dexir.OpReflectInvoke},
		}},
	})
	if res := analyze(app); res.DrawAndDestroy {
		t.Fatal("unresolvable reflection resolved")
	}
}

// TestGuardedSinkStillReachable: path-insensitive analysis reaches sinks
// behind always-false guards (documented over-approximation).
func TestGuardedSinkStillReachable(t *testing.T) {
	cls := dexir.ClassName("com.guard", "Main")
	onCreate := dexir.Ref(cls, "onCreate", "(Landroid/os/Bundle;)V")
	app := buildApp("com.guard", saw(), dexir.Activity, []dexir.MethodRef{onCreate}, []dexir.Method{
		{Ref: onCreate, Body: []dexir.Instruction{
			{Op: dexir.OpInvoke, Target: dexir.RefAddView, Guard: dexir.GuardAlwaysFalse},
			{Op: dexir.OpInvoke, Target: dexir.RefRemoveView, Guard: dexir.GuardAlwaysFalse},
		}},
	})
	res := analyze(app)
	if !res.DrawAndDestroy {
		t.Fatal("guarded sinks not reached (analysis should be path-insensitive)")
	}
	for _, f := range res.Findings {
		for _, e := range f.Evidence {
			if !e.Guarded {
				t.Fatalf("evidence not flagged guarded: %+v", e)
			}
		}
	}
}

func toastLoopApp(reEnqueue bool) *dexir.App {
	cls := dexir.ClassName("com.toast", "Main")
	onCreate := dexir.Ref(cls, "onCreate", "(Landroid/os/Bundle;)V")
	loop := dexir.Ref(cls, "toastLoop", "()V")
	body := []dexir.Instruction{
		{Op: dexir.OpInvoke, Target: dexir.RefToastSetView},
		{Op: dexir.OpInvoke, Target: dexir.RefToastShow},
	}
	if reEnqueue {
		body = append(body, dexir.Instruction{Op: dexir.OpRegisterCallback, Target: dexir.RefHandlerPostDelayed, Callback: loop})
	}
	return buildApp("com.toast", nil, dexir.Activity, []dexir.MethodRef{onCreate}, []dexir.Method{
		{Ref: onCreate, Body: []dexir.Instruction{
			{Op: dexir.OpRegisterCallback, Target: dexir.RefHandlerPostDelayed, Callback: loop},
		}},
		{Ref: loop, Body: body},
	})
}

func TestToastReplaceDetection(t *testing.T) {
	res := analyze(toastLoopApp(true))
	if !res.ToastReplace {
		t.Fatal("re-enqueueing toast loop not detected")
	}
	if !res.SetViewReachable {
		t.Fatal("setView feature not reported")
	}
	// A one-shot customized toast is the feature but not the capability.
	res = analyze(toastLoopApp(false))
	if res.ToastReplace {
		t.Fatal("one-shot toast misclassified as replacement capability")
	}
	if !res.SetViewReachable {
		t.Fatal("one-shot setView feature missed")
	}
}

// TestToastReplaceViaRepeatingTimer: registration on a fixed-rate timer
// counts as repeating even without self-re-enqueue.
func TestToastReplaceViaRepeatingTimer(t *testing.T) {
	cls := dexir.ClassName("com.timer", "Main")
	onCreate := dexir.Ref(cls, "onCreate", "(Landroid/os/Bundle;)V")
	tick := dexir.Ref(cls, "tick", "()V")
	app := buildApp("com.timer", nil, dexir.Activity, []dexir.MethodRef{onCreate}, []dexir.Method{
		{Ref: onCreate, Body: []dexir.Instruction{
			{Op: dexir.OpRegisterCallback, Target: dexir.RefTimerScheduleRate, Callback: tick},
		}},
		{Ref: tick, Body: []dexir.Instruction{
			{Op: dexir.OpInvoke, Target: dexir.RefToastSetView},
			{Op: dexir.OpInvoke, Target: dexir.RefToastShow},
		}},
	})
	if res := analyze(app); !res.ToastReplace {
		t.Fatal("fixed-rate timer toast loop not detected")
	}
}

func TestA11yTimingDetection(t *testing.T) {
	cls := dexir.ClassName("com.a11y", "Access")
	onEvent := dexir.Ref(cls, "onAccessibilityEvent", "(Landroid/view/accessibility/AccessibilityEvent;)V")
	strike := dexir.Ref(cls, "strike", "()V")
	app := &dexir.App{
		Package:     "com.a11y",
		Permissions: []string{dexir.PermSystemAlertWindow, dexir.PermBindAccessibility},
		Components: []dexir.Component{
			{Name: cls, Kind: dexir.AccessibilityService, EntryPoints: []dexir.MethodRef{onEvent}},
		},
		Classes: []dexir.Class{{Name: cls, Methods: []dexir.Method{
			{Ref: onEvent, Body: []dexir.Instruction{{Op: dexir.OpInvoke, Target: strike}}},
			{Ref: strike, Body: []dexir.Instruction{
				{Op: dexir.OpInvoke, Target: dexir.RefAddView},
				{Op: dexir.OpInvoke, Target: dexir.RefRemoveView},
			}},
		}}},
	}
	res := analyze(app)
	if !res.A11yTiming {
		t.Fatal("a11y-wired overlay not detected")
	}
	// An a11y service that never touches overlays is clean.
	clean := &dexir.App{
		Package:     "com.screenreader",
		Permissions: []string{dexir.PermBindAccessibility},
		Components: []dexir.Component{
			{Name: cls, Kind: dexir.AccessibilityService, EntryPoints: []dexir.MethodRef{onEvent}},
		},
		Classes: []dexir.Class{{Name: cls, Methods: []dexir.Method{
			{Ref: onEvent, Body: []dexir.Instruction{{Op: dexir.OpNop}}},
		}}},
	}
	if res := analyze(clean); res.A11yTiming {
		t.Fatal("benign a11y service flagged")
	}
}

func TestReachSetPathAndFlags(t *testing.T) {
	app := attackApp()
	g := BuildCallGraphTier(app, Tier0)
	cls := dexir.ClassName("com.evil", "Main")
	onCreate := dexir.Ref(cls, "onCreate", "(Landroid/os/Bundle;)V")
	swap := dexir.Ref(cls, "swap", "()V")
	reach := g.ReachableFrom([]dexir.MethodRef{onCreate})
	if !reach.Contains(swap) || !reach.ViaCallback(swap) {
		t.Fatalf("swap reach = contains:%v viaCallback:%v", reach.Contains(swap), reach.ViaCallback(swap))
	}
	path := reach.Path(swap)
	if len(path) != 2 || path[0] != onCreate || path[1] != swap {
		t.Fatalf("path = %v", path)
	}
	if reach.Path("Lnone;->x()V") != nil {
		t.Fatal("path for unreachable method")
	}
	if !g.RegistersSelf(swap) {
		t.Fatal("self-re-enqueue not recorded")
	}
}

func TestCapabilityStrings(t *testing.T) {
	for c, want := range map[Capability]string{
		CapDrawAndDestroy: "draw-and-destroy-overlay",
		CapToastReplace:   "toast-replacement",
		CapA11yTiming:     "a11y-assisted-timing",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q", int(c), c.String())
		}
	}
	if got := Capability(42).String(); got != "capability(42)" {
		t.Errorf("unknown capability = %q", got)
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	a := analyze(attackApp())
	b := analyze(attackApp())
	if len(a.Findings) != len(b.Findings) {
		t.Fatalf("finding counts differ: %d vs %d", len(a.Findings), len(b.Findings))
	}
	for i := range a.Findings {
		if a.Findings[i].Component != b.Findings[i].Component || a.Findings[i].Capability != b.Findings[i].Capability {
			t.Fatalf("finding %d differs", i)
		}
	}
}

package appstore

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/simrand"
	"repro/internal/staticanalysis"
)

// scanApp runs every analyzer over one APK at Tier0, the paper-baseline
// static configuration.
func scanApp(apk APK) AppScan {
	return ScanAppTier(apk, staticanalysis.Tier0)
}

func TestPaperRatesInRange(t *testing.T) {
	r := PaperRates()
	for i, p := range r.probabilities() {
		if p < 0 || p > 1 {
			t.Errorf("rate #%d = %v out of [0,1]", i, p)
		}
	}
}

// TestPaperRatesCalibration: the expected counts at the paper's corpus
// size must land within ±2% of the paper's three §VI-C2 numbers.
func TestPaperRatesCalibration(t *testing.T) {
	r := PaperRates()
	n := float64(PaperCorpusSize)
	checks := []struct {
		name     string
		expected float64
		paper    int
	}{
		{"overlay+a11y", n * r.SAW * r.A11yGivenSAW, PaperOverlayPlusA11y},
		{"add/remove+SAW", n * r.SAW * r.AddRemoveGivenSAW, PaperAddRemoveWithSAW},
		{"custom toast", n * r.CustomToast, PaperCustomToast},
	}
	for _, c := range checks {
		if dev := math.Abs(c.expected-float64(c.paper)) / float64(c.paper); dev > 0.02 {
			t.Errorf("%s expected count %.0f deviates %.2f%% from paper %d (limit 2%%)",
				c.name, c.expected, 100*dev, c.paper)
		}
	}
}

func TestNewGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(nil, PaperRates()); err == nil {
		t.Fatal("nil rng accepted")
	}
	bad := PaperRates()
	bad.SAW = 1.5
	if _, err := NewGenerator(simrand.New(1), bad); err == nil {
		t.Fatal("rate > 1 accepted")
	}
	bad = PaperRates()
	bad.DeadOverlayGivenSAW = -0.1
	if _, err := NewGenerator(simrand.New(1), bad); err == nil {
		t.Fatal("negative decoy rate accepted")
	}
}

func TestGeneratedManifestParses(t *testing.T) {
	gen, err := NewGenerator(simrand.New(2), Rates{SAW: 1, A11yGivenSAW: 1, AddRemoveGivenSAW: 1, CustomToast: 1})
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	apk := gen.Next()
	if !strings.Contains(apk.Manifest, PermSystemAlertWindow) {
		t.Fatal("manifest missing SAW permission")
	}
	res := Scan(apk)
	if !res.HasSAW || !res.HasA11yService || !res.CallsAddView || !res.CallsRemoveView || !res.UsesCustomToast {
		t.Fatalf("scan of all-features app = %+v", res)
	}
	full := scanApp(apk)
	if !full.Static.DrawAndDestroy || !full.Static.SetViewReachable {
		t.Fatalf("static analysis of all-features app = %+v", full.Static)
	}
	if !full.Truth.Overlay || !full.Truth.Toast {
		t.Fatalf("truth = %+v", full.Truth)
	}
}

func TestScanCleanApp(t *testing.T) {
	gen, err := NewGenerator(simrand.New(3), Rates{})
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	apk := gen.Next()
	res := Scan(apk)
	if res.HasSAW || res.HasA11yService || res.CallsAddView || res.CallsRemoveView || res.UsesCustomToast {
		t.Fatalf("scan of featureless app = %+v", res)
	}
	full := scanApp(apk)
	if full.Static.DrawAndDestroy || full.Static.ToastReplace || full.Static.A11yTiming || full.Static.SetViewReachable {
		t.Fatalf("static analysis of featureless app = %+v", full.Static)
	}
}

func TestScanManifestDirect(t *testing.T) {
	manifest := `<manifest package="x">
  <uses-permission android:name="android.permission.INTERNET"/>
  <uses-permission android:name="android.permission.SYSTEM_ALERT_WINDOW"/>
  <application>
    <service android:name="x.Svc" android:permission="android.permission.BIND_ACCESSIBILITY_SERVICE"/>
  </application>
</manifest>`
	saw, a11y := ScanManifest(manifest)
	if !saw || !a11y {
		t.Fatalf("ScanManifest = (%v,%v), want both true", saw, a11y)
	}
	// A service without the accessibility bind permission must not count.
	saw, a11y = ScanManifest(`<manifest><service android:name="x" android:permission="android.permission.BIND_JOB_SERVICE"/></manifest>`)
	if saw || a11y {
		t.Fatalf("false positives: (%v,%v)", saw, a11y)
	}
	// Substring traps: a permission that merely contains the name inside
	// another attribute must not match.
	saw, _ = ScanManifest(`<manifest><uses-permission android:label="android.permission.SYSTEM_ALERT_WINDOW" android:name="android.permission.CAMERA"/></manifest>`)
	if saw {
		t.Fatal("label attribute misread as name")
	}
}

func TestXMLAttr(t *testing.T) {
	v, ok := xmlAttr(`<x android:name="abc" other="d"/>`, "android:name")
	if !ok || v != "abc" {
		t.Fatalf("xmlAttr = (%q,%v)", v, ok)
	}
	if _, ok := xmlAttr(`<x/>`, "android:name"); ok {
		t.Fatal("attr found on empty tag")
	}
	if _, ok := xmlAttr(`<x android:name="unterminated`, "android:name"); ok {
		t.Fatal("unterminated attr accepted")
	}
}

func TestScanDexDirect(t *testing.T) {
	add, rm, toast := ScanDex([]string{RefAddView, RefToastSetView})
	if !add || rm || !toast {
		t.Fatalf("ScanDex = (%v,%v,%v)", add, rm, toast)
	}
	add, rm, toast = ScanDex(nil)
	if add || rm || toast {
		t.Fatal("ScanDex on empty refs found features")
	}
}

// forceRates returns PaperRates with every decoy/draw probability forced
// to the given deterministic choices, keeping validation happy.
func forceRates(mutate func(*Rates)) Rates {
	r := Rates{SAW: 1}
	mutate(&r)
	return r
}

// TestDeadCodeDecoyMisclassifiedByGrep: an app whose only overlay calls
// sit in dead code fools the ref-table grep but not the call graph.
func TestDeadCodeDecoyMisclassifiedByGrep(t *testing.T) {
	rates := forceRates(func(r *Rates) { r.DeadOverlayGivenSAW = 1 })
	gen, err := NewGenerator(simrand.New(11), rates)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	for i := 0; i < 20; i++ {
		s := scanApp(gen.Next())
		if s.Truth.Overlay {
			t.Fatal("decoy app labeled capable")
		}
		grepOverlay := s.Grep.HasSAW && s.Grep.CallsAddView && s.Grep.CallsRemoveView
		if !grepOverlay {
			t.Fatal("grep did not see the dead-code refs (decoy not planted?)")
		}
		if s.Static.DrawAndDestroy {
			t.Fatal("call graph reached dead code")
		}
	}
}

// TestReflectionDecoyMissedByGrep: a genuinely capable app dispatching
// overlay calls reflectively is invisible to grep but not to the
// call-graph analyzer.
func TestReflectionDecoyMissedByGrep(t *testing.T) {
	rates := forceRates(func(r *Rates) {
		r.AddRemoveGivenSAW = 1
		r.ReflectionGivenCapable = 1
	})
	gen, err := NewGenerator(simrand.New(12), rates)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	for i := 0; i < 20; i++ {
		s := scanApp(gen.Next())
		if !s.Truth.Overlay {
			t.Fatal("capable app not labeled capable")
		}
		if s.Grep.CallsAddView || s.Grep.CallsRemoveView {
			t.Fatal("reflective dispatch leaked into the ref table")
		}
		if !s.Static.DrawAndDestroy {
			t.Fatal("call graph missed the reflective capability")
		}
	}
}

// TestDeepReflectionMissedByBoth: runtime-built strings bound both
// analyzers' recall — the shared false negative.
func TestDeepReflectionMissedByBoth(t *testing.T) {
	rates := forceRates(func(r *Rates) {
		r.AddRemoveGivenSAW = 1
		r.DeepReflectionGivenCapable = 1
	})
	gen, err := NewGenerator(simrand.New(13), rates)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	s := scanApp(gen.Next())
	if !s.Truth.Overlay {
		t.Fatal("capable app not labeled capable")
	}
	if s.Grep.CallsAddView || s.Static.DrawAndDestroy {
		t.Fatalf("deep reflection resolved: grep=%v static=%v", s.Grep.CallsAddView, s.Static.DrawAndDestroy)
	}
}

// TestGuardedDecoyFoolsBoth: the always-false-guarded decoy is a false
// positive for grep and for the path-insensitive call graph alike.
func TestGuardedDecoyFoolsBoth(t *testing.T) {
	rates := forceRates(func(r *Rates) { r.GuardedOverlayGivenSAW = 1 })
	gen, err := NewGenerator(simrand.New(14), rates)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	s := scanApp(gen.Next())
	if s.Truth.Overlay {
		t.Fatal("guarded decoy labeled capable")
	}
	if !s.Static.DrawAndDestroy {
		t.Fatal("path-insensitive analysis should reach the guarded sink")
	}
}

// TestToastCapabilityVsFeature: the one-shot customized toast is a
// feature, the re-enqueueing loop a capability.
func TestToastCapabilityVsFeature(t *testing.T) {
	oneShot, err := NewGenerator(simrand.New(15), Rates{CustomToast: 1})
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	s := scanApp(oneShot.Next())
	if !s.Static.SetViewReachable || s.Static.ToastReplace {
		t.Fatalf("one-shot toast: setView=%v replace=%v", s.Static.SetViewReachable, s.Static.ToastReplace)
	}
	looping, err := NewGenerator(simrand.New(16), Rates{CustomToast: 1, ToastReplaceGivenToast: 1})
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	s = scanApp(looping.Next())
	if !s.Static.ToastReplace || !s.Truth.ToastReplace {
		t.Fatalf("toast loop: static=%v truth=%v", s.Static.ToastReplace, s.Truth.ToastReplace)
	}
}

// TestA11yTimingWiring: a11y-wired attack apps are detected; unwired a11y
// services are not.
func TestA11yTimingWiring(t *testing.T) {
	wired, err := NewGenerator(simrand.New(17), Rates{SAW: 1, A11yGivenSAW: 1, AddRemoveGivenSAW: 1, A11yAttackGivenCapable: 1})
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	s := scanApp(wired.Next())
	if !s.Static.A11yTiming || !s.Truth.A11yTiming {
		t.Fatalf("wired a11y: static=%v truth=%v", s.Static.A11yTiming, s.Truth.A11yTiming)
	}
	unwired, err := NewGenerator(simrand.New(18), Rates{SAW: 1, A11yGivenSAW: 1, AddRemoveGivenSAW: 1})
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	s = scanApp(unwired.Next())
	if s.Static.A11yTiming || s.Truth.A11yTiming {
		t.Fatalf("unwired a11y flagged: static=%v truth=%v", s.Static.A11yTiming, s.Truth.A11yTiming)
	}
}

// TestStudyReproducesPaperProportions runs a 50k-app corpus and checks the
// three §VI-C2 counts land within 20% of the paper's proportions.
func TestStudyReproducesPaperProportions(t *testing.T) {
	const n = 50000
	rep, err := ScanRange(1, 0, n, PaperRates(), staticanalysis.Tier0)
	if err != nil {
		t.Fatalf("ScanRange: %v", err)
	}
	if rep.Total != n {
		t.Fatalf("Total = %d, want %d", rep.Total, n)
	}
	scale := float64(n) / float64(PaperCorpusSize)
	checks := []struct {
		name  string
		got   int
		paper int
	}{
		{"overlay+a11y", rep.OverlayPlusA11y, PaperOverlayPlusA11y},
		{"add/remove+SAW", rep.AddRemoveWithSAW, PaperAddRemoveWithSAW},
		{"custom toast", rep.CustomToast, PaperCustomToast},
	}
	for _, c := range checks {
		want := scale * float64(c.paper)
		if got := float64(c.got); got < 0.8*want || got > 1.2*want {
			t.Errorf("%s = %d, want ≈%.0f (±20%%)", c.name, c.got, want)
		}
	}
	if s := rep.String(); !strings.Contains(s, "scanned 50000 apps") {
		t.Fatalf("report string = %q", s)
	}
	// The call-graph analyzer must beat the grep baseline on per-app
	// classification of the overlay capability.
	if sp, gp := rep.StaticOverlay.Precision(), rep.GrepOverlay.Precision(); sp <= gp {
		t.Errorf("static precision %.3f not above grep %.3f", sp, gp)
	}
	if sr, gr := rep.StaticOverlay.Recall(), rep.GrepOverlay.Recall(); sr <= gr {
		t.Errorf("static recall %.3f not above grep %.3f", sr, gr)
	}
}

func TestStudyDeterministic(t *testing.T) {
	a, err := ScanRange(7, 0, 2000, PaperRates(), staticanalysis.Tier0)
	if err != nil {
		t.Fatalf("ScanRange: %v", err)
	}
	b, err := ScanRange(7, 0, 2000, PaperRates(), staticanalysis.Tier0)
	if err != nil {
		t.Fatalf("ScanRange: %v", err)
	}
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestPackagesUnique(t *testing.T) {
	gen, err := NewGenerator(simrand.New(5), PaperRates())
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		apk := gen.Next()
		if seen[apk.Package] {
			t.Fatalf("duplicate package %s", apk.Package)
		}
		seen[apk.Package] = true
	}
}

func TestDetectorStats(t *testing.T) {
	var d DetectorStats
	d.add(true, true)
	d.add(true, false)
	d.add(false, true)
	d.add(false, false)
	if d.TP != 1 || d.FP != 1 || d.FN != 1 || d.TN != 1 {
		t.Fatalf("confusion = %+v", d)
	}
	if p := d.Precision(); p != 0.5 {
		t.Errorf("precision = %v", p)
	}
	if r := d.Recall(); r != 0.5 {
		t.Errorf("recall = %v", r)
	}
	var empty DetectorStats
	if empty.Precision() != 1 || empty.Recall() != 1 {
		t.Error("empty stats should report perfect precision/recall")
	}
}

// TestGenerateAppsMatchesStudyCorpus pins the public corpus accessor to
// the study's own generation: the report assembled by scanning
// GenerateApps output must be byte-identical to ScanRange over the same
// seed and size, including across a chunk boundary.
func TestGenerateAppsMatchesStudyCorpus(t *testing.T) {
	const seed, n = 42, StudyChunkSize + 257
	apks, err := GenerateApps(seed, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(apks) != n {
		t.Fatalf("got %d apps, want %d", len(apks), n)
	}
	var got Report
	for _, apk := range apks {
		got.Add(scanApp(apk))
	}
	want, err := ScanRange(seed, 0, n, PaperRates(), staticanalysis.Tier0)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("GenerateApps corpus diverges from ScanRange:\n%s\nvs\n%s", got, want)
	}
}

// TestGenerateAppRandomAccess checks a single-app lookup deep inside a
// later chunk agrees with the contiguous range accessor, and that the
// returned label is the generator's own truth.
func TestGenerateAppRandomAccess(t *testing.T) {
	const seed = 7
	const idx = StudyChunkSize + 904
	one, err := GenerateApps(seed, idx, 1)
	if err != nil {
		t.Fatal(err)
	}
	ir, truth := one[0].IR, one[0].Truth
	apks, err := GenerateApps(seed, StudyChunkSize, 1000)
	if err != nil {
		t.Fatal(err)
	}
	want := apks[idx-StudyChunkSize]
	if ir.Package != want.IR.Package || truth != want.Truth {
		t.Fatalf("GenerateApps(%d, 1) = %s %+v, want %s %+v", idx, ir.Package, truth, want.IR.Package, want.Truth)
	}
	wantPkg := fmt.Sprintf("com.gen.app%06d", idx+1)
	if ir.Package != wantPkg {
		t.Fatalf("package %s, want %s", ir.Package, wantPkg)
	}
}

func TestGenerateAppsRejectsBadRange(t *testing.T) {
	if _, err := GenerateApps(42, -1, 1); err == nil {
		t.Error("negative start accepted")
	}
	if _, err := GenerateApps(42, 0, 0); err == nil {
		t.Error("zero count accepted")
	}
}

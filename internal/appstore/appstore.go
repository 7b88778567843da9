// Package appstore reproduces the paper's Section VI-C2 app-market study.
// The paper crawled 890,855 APKs from AndroZoo and scanned them with an
// aapt-based manifest analyzer and a FlowDroid-based method analyzer,
// finding 4,405 apps that request SYSTEM_ALERT_WINDOW *and* register an
// accessibility service, 18,887 that call both addView() and removeView()
// and request SYSTEM_ALERT_WINDOW, and 15,179 that use a customized toast.
//
// AndroZoo is not redistributable, so this package substitutes a synthetic
// corpus: a generator that emits APK stand-ins whose feature marginals are
// calibrated to the paper's measured rates. Each stand-in carries three
// analyzer views of the same app:
//
//   - the AndroidManifest.xml text (parsed by the aapt-style pass),
//   - the flat DEX method-reference table (searched by the grep baseline),
//   - a full dexir.App IR with instruction bodies, which the
//     staticanalysis call-graph pass analyzes the way FlowDroid does.
//
// The generator also plants decoys that separate the two code analyses:
// dead-code and always-false-guarded overlay calls (grep false positives)
// and reflectively dispatched overlay calls (grep false negatives), plus a
// per-app ground-truth label so the study can report each analyzer's
// precision and recall, not just its aggregate counts.
//
// A second family of decoys — disabled at the paper's rates, enabled by
// PrecisionRates — separates the staticanalysis precision tiers from each
// other: reflective sinks whose names are split across concatenated
// fragments or returned by helper methods (invisible below Tier2), and
// reachable attack wiring behind constant-false BuildConfig-style flags
// (a false positive below Tier2). The `precision` experiment scans this
// corpus at every tier and scores each against the ground truth.
package appstore

import (
	"fmt"
	"strings"

	"repro/internal/dexir"
	"repro/internal/simrand"
	"repro/internal/staticanalysis"
)

// Android identifier constants the scanners look for.
const (
	// PermSystemAlertWindow is the overlay permission.
	PermSystemAlertWindow = dexir.PermSystemAlertWindow
	// PermBindAccessibility marks accessibility services.
	PermBindAccessibility = dexir.PermBindAccessibility
	// RefAddView and RefRemoveView are the WindowManager method
	// references the FlowDroid pass searches for.
	RefAddView    = string(dexir.RefAddView)
	RefRemoveView = string(dexir.RefRemoveView)
	// RefToastSetView marks customized toasts (Toast.setView).
	RefToastSetView = string(dexir.RefToastSetView)
)

// PaperCorpusSize is the AndroZoo sample size of Section VI-C2.
const PaperCorpusSize = 890855

// Paper counts for calibration checks.
const (
	PaperOverlayPlusA11y  = 4405
	PaperAddRemoveWithSAW = 18887
	PaperCustomToast      = 15179
)

// Rates parameterizes the synthetic corpus generator.
type Rates struct {
	// SAW is P(app requests SYSTEM_ALERT_WINDOW).
	SAW float64
	// A11yGivenSAW is P(accessibility service | SAW).
	A11yGivenSAW float64
	// A11yGivenNoSAW is P(accessibility service | ¬SAW).
	A11yGivenNoSAW float64
	// AddRemoveGivenSAW is P(genuinely reachable addView+removeView | SAW)
	// — the draw-and-destroy ground truth.
	AddRemoveGivenSAW float64
	// AddRemoveGivenNoSAW is the same for apps without the permission
	// (in-app window management).
	AddRemoveGivenNoSAW float64
	// CustomToast is P(app genuinely uses Toast.setView), independent of
	// the overlay features.
	CustomToast float64

	// ReflectionGivenCapable is P(overlay calls dispatched via resolvable
	// reflection | capable): the refs vanish from the method-reference
	// table (grep false negative) while constant-string resolution still
	// finds them.
	ReflectionGivenCapable float64
	// DeepReflectionGivenCapable is P(overlay calls behind runtime-built
	// strings | capable): invisible to both analyses (a shared false
	// negative, bounding achievable recall).
	DeepReflectionGivenCapable float64
	// DeadOverlayGivenSAW is P(dead-code addView+removeView decoy | SAW
	// without the capability): in the ref table, never reachable — a grep
	// false positive the call graph rejects.
	DeadOverlayGivenSAW float64
	// GuardedOverlayGivenSAW is P(reachable overlay calls behind an
	// always-false guard | SAW without the capability): a false positive
	// for both grep and the path-insensitive reachability pass.
	GuardedOverlayGivenSAW float64
	// ToastReplaceGivenToast is P(re-enqueueing toast loop | customized
	// toast) — the §IV capability among feature users.
	ToastReplaceGivenToast float64
	// DeadToastGivenNoToast is P(dead-code Toast.setView decoy | no
	// customized toast) — a grep false positive.
	DeadToastGivenNoToast float64
	// A11yAttackGivenCapable is P(accessibility event handler wired to
	// the overlay calls | a11y service ∧ overlay-capable) — the §V
	// trigger.
	A11yAttackGivenCapable float64

	// The tier-separating obfuscation rates below are all zero at
	// PaperRates (the legacy corpus is byte-identical); PrecisionRates
	// enables them for the precision experiment's corpus.

	// SplitReflectGivenCapable is P(reflective overlay dispatch whose
	// class/method names are concatenated from fragments | capable):
	// a false negative for grep and for the Tier0/Tier1 const-string
	// window, recovered by Tier2 constant propagation.
	SplitReflectGivenCapable float64
	// CrossReflectGivenCapable is P(reflective overlay dispatch whose
	// names are returned by helper methods | capable): resolved only by
	// Tier2's interprocedural constant-return summaries.
	CrossReflectGivenCapable float64
	// FlagOverlayGivenSAW is P(reachable overlay pair behind a
	// constant-false flag guard | SAW without the capability): a false
	// positive for Tier0 and Tier1, pruned by Tier2's flag table.
	FlagOverlayGivenSAW float64
	// FlagToastGivenToast is P(flag-guarded toast re-enqueue | customized
	// toast without the replace capability): a Tier0/Tier1 toast-replace
	// false positive.
	FlagToastGivenToast float64
	// FlagA11yGivenBenign is P(flag-guarded event-handler wiring to the
	// overlay calls | benign a11y service in a capable app): a
	// Tier0/Tier1 a11y-timing false positive.
	FlagA11yGivenBenign float64
}

// probabilities lists every rate field for validation.
func (r Rates) probabilities() []float64 {
	return []float64{
		r.SAW, r.A11yGivenSAW, r.A11yGivenNoSAW, r.AddRemoveGivenSAW,
		r.AddRemoveGivenNoSAW, r.CustomToast, r.ReflectionGivenCapable,
		r.DeepReflectionGivenCapable, r.DeadOverlayGivenSAW,
		r.GuardedOverlayGivenSAW, r.ToastReplaceGivenToast,
		r.DeadToastGivenNoToast, r.A11yAttackGivenCapable,
		r.SplitReflectGivenCapable, r.CrossReflectGivenCapable,
		r.FlagOverlayGivenSAW, r.FlagToastGivenToast, r.FlagA11yGivenBenign,
	}
}

// obfuscated reports whether any tier-separating decoy is enabled; the
// generator derives its obfuscation stream only then, so the legacy
// corpus (all obfuscation rates zero) is reproduced draw-for-draw.
func (r Rates) obfuscated() bool {
	return r.SplitReflectGivenCapable > 0 || r.CrossReflectGivenCapable > 0 ||
		r.FlagOverlayGivenSAW > 0 || r.FlagToastGivenToast > 0 || r.FlagA11yGivenBenign > 0
}

func validateRates(r Rates) error {
	for _, p := range r.probabilities() {
		if p < 0 || p > 1 {
			return fmt.Errorf("appstore: rate %v out of [0,1]", p)
		}
	}
	return nil
}

// PaperRates returns generator rates calibrated so that the expected
// counts at the AndroZoo sample size match Section VI-C2:
//
//	890855 × P(SAW)·P(a11y|SAW)       ≈ 4,405
//	890855 × P(SAW)·P(add&rm|SAW)     ≈ 18,887
//	890855 × P(toast)                 ≈ 15,179
//
// The decoy rates are chosen so the static analyzer's count stays on the
// paper's value (its false positives and negatives are small and roughly
// cancel) while the grep baseline visibly over- and under-counts.
func PaperRates() Rates {
	const (
		pSAW   = 0.04
		jointA = float64(PaperOverlayPlusA11y) / float64(PaperCorpusSize)
		jointR = float64(PaperAddRemoveWithSAW) / float64(PaperCorpusSize)
	)
	return Rates{
		SAW:                 pSAW,
		A11yGivenSAW:        jointA / pSAW,
		A11yGivenNoSAW:      0.005,
		AddRemoveGivenSAW:   jointR / pSAW,
		AddRemoveGivenNoSAW: 0.03,
		CustomToast:         float64(PaperCustomToast) / float64(PaperCorpusSize),

		ReflectionGivenCapable:     0.15,
		DeepReflectionGivenCapable: 0.01,
		DeadOverlayGivenSAW:        0.12,
		GuardedOverlayGivenSAW:     0.012,
		ToastReplaceGivenToast:     0.30,
		DeadToastGivenNoToast:      0.005,
		A11yAttackGivenCapable:     0.50,
	}
}

// PrecisionRates returns the paper rates with the tier-separating decoys
// enabled — the corpus the `precision` experiment scans. Each rate is
// large enough that every tier-to-tier delta is visible at modest corpus
// sizes, and the decoys are mutually exclusive with the legacy ones so a
// single app never mixes obfuscation styles.
func PrecisionRates() Rates {
	r := PaperRates()
	r.SplitReflectGivenCapable = 0.12
	r.CrossReflectGivenCapable = 0.12
	r.FlagOverlayGivenSAW = 0.10
	r.FlagToastGivenToast = 0.10
	r.FlagA11yGivenBenign = 0.50
	return r
}

// Truth is the generator's ground-truth label for one app — what a
// dynamic oracle running the app would observe.
type Truth struct {
	// Overlay: addView+removeView genuinely reachable at runtime in an
	// app holding SYSTEM_ALERT_WINDOW (the paper's 18,887 row).
	Overlay bool
	// Toast: a customized toast (setView) genuinely used (the 15,179 row).
	Toast bool
	// ToastReplace: the §IV re-enqueueing toast loop.
	ToastReplace bool
	// A11yTiming: accessibility events wired to the overlay calls.
	A11yTiming bool
}

// APK is a synthetic application artifact carrying all three analyzer
// views plus its ground truth.
type APK struct {
	// Package is the application id.
	Package string
	// Manifest is the AndroidManifest.xml text.
	Manifest string
	// DexRefs is the flat method-reference table extracted from
	// classes.dex — the grep baseline's input.
	DexRefs []string
	// IR is the full instruction-level representation — the call-graph
	// analyzer's input.
	IR *dexir.App
	// Truth is the generator's ground-truth label.
	Truth Truth
}

// fillerPermissions pads manifests so the scanner cannot cheat by length.
var fillerPermissions = []string{
	"android.permission.INTERNET",
	"android.permission.ACCESS_NETWORK_STATE",
	"android.permission.CAMERA",
	"android.permission.READ_CONTACTS",
	"android.permission.ACCESS_FINE_LOCATION",
	"android.permission.RECORD_AUDIO",
	"android.permission.WRITE_EXTERNAL_STORAGE",
	"android.permission.VIBRATE",
	"android.permission.WAKE_LOCK",
	"android.permission.RECEIVE_BOOT_COMPLETED",
}

// fillerRefs are benign framework calls emitted into method bodies so the
// ref table never degenerates to just the signatures of interest.
var fillerRefs = []dexir.MethodRef{
	"Landroid/app/Activity;->onCreate(Landroid/os/Bundle;)V",
	"Landroid/widget/TextView;->setText(Ljava/lang/CharSequence;)V",
	"Ljava/net/HttpURLConnection;->connect()V",
	"Landroid/content/SharedPreferences;->edit()Landroid/content/SharedPreferences$Editor;",
	"Landroid/widget/Toast;->makeText(Landroid/content/Context;Ljava/lang/CharSequence;I)Landroid/widget/Toast;",
	"Landroid/view/View;->setOnClickListener(Landroid/view/View$OnClickListener;)V",
}

// Generator emits synthetic APKs with the configured feature rates.
type Generator struct {
	rng   *simrand.Source
	obf   *simrand.Source // tier-separating decoy draws; nil at paper rates
	rates Rates
	base  int
	n     int
}

// NewGenerator builds a generator from a seed.
func NewGenerator(rng *simrand.Source, rates Rates) (*Generator, error) {
	if rng == nil {
		return nil, fmt.Errorf("appstore: nil rng")
	}
	if err := validateRates(rates); err != nil {
		return nil, err
	}
	g := &Generator{rng: rng, rates: rates}
	if rates.obfuscated() {
		// A dedicated sub-stream keeps the legacy draw sequence intact:
		// Derive consumes from rng, so it runs only when some obfuscation
		// rate is nonzero — at PaperRates the corpus stays byte-identical.
		g.obf = rng.Derive("obfuscation")
	}
	return g, nil
}

// newGeneratorAt builds a generator whose package ids start at base+1;
// every corpus chunk uses one so chunks name disjoint apps.
func newGeneratorAt(rng *simrand.Source, rates Rates, base int) (*Generator, error) {
	g, err := NewGenerator(rng, rates)
	if err != nil {
		return nil, err
	}
	g.base = base
	return g, nil
}

// features is one app's drawn feature vector.
type features struct {
	saw, a11y, addRemove, toast bool
	reflect, deepReflect        bool
	deadOverlay, guardedOverlay bool
	toastReplace, deadToast     bool
	a11yAttack                  bool
	// Tier-separating decoys (PrecisionRates corpus only).
	splitReflect, crossReflect  bool
	flagOverlay, flagToast      bool
	flagA11y                    bool
	fillerPermIdx, fillerRefIdx []int
}

// draw samples one feature vector; the draw sequence is fixed so a given
// stream position always yields the same app.
func (g *Generator) draw() features {
	var f features
	r := g.rates
	f.saw = g.rng.Bool(r.SAW)
	if f.saw {
		f.a11y = g.rng.Bool(r.A11yGivenSAW)
		f.addRemove = g.rng.Bool(r.AddRemoveGivenSAW)
	} else {
		f.a11y = g.rng.Bool(r.A11yGivenNoSAW)
		f.addRemove = g.rng.Bool(r.AddRemoveGivenNoSAW)
	}
	f.toast = g.rng.Bool(r.CustomToast)
	if f.addRemove {
		f.reflect = g.rng.Bool(r.ReflectionGivenCapable)
		f.deepReflect = g.rng.Bool(r.DeepReflectionGivenCapable)
		if f.deepReflect {
			f.reflect = false
		}
	} else if f.saw {
		f.deadOverlay = g.rng.Bool(r.DeadOverlayGivenSAW)
		if !f.deadOverlay {
			f.guardedOverlay = g.rng.Bool(r.GuardedOverlayGivenSAW)
		}
	}
	if f.toast {
		f.toastReplace = g.rng.Bool(r.ToastReplaceGivenToast)
	} else {
		f.deadToast = g.rng.Bool(r.DeadToastGivenNoToast)
	}
	if f.a11y && f.saw && f.addRemove {
		f.a11yAttack = g.rng.Bool(r.A11yAttackGivenCapable)
	}
	f.fillerPermIdx = g.rng.Perm(len(fillerPermissions))[:2+g.rng.Intn(4)]
	f.fillerRefIdx = g.rng.Perm(len(fillerRefs))[:2+g.rng.Intn(3)]
	// Tier-separating decoys draw from the dedicated obfuscation stream,
	// after every legacy draw, so enabling them cannot shift the features
	// above. Each decoy excludes the legacy obfuscations/decoys of the
	// same app so one app carries one dispatch style.
	if g.obf != nil {
		if f.addRemove && !f.reflect && !f.deepReflect {
			f.splitReflect = g.obf.Bool(r.SplitReflectGivenCapable)
			if !f.splitReflect {
				f.crossReflect = g.obf.Bool(r.CrossReflectGivenCapable)
			}
		}
		if f.saw && !f.addRemove && !f.deadOverlay && !f.guardedOverlay {
			f.flagOverlay = g.obf.Bool(r.FlagOverlayGivenSAW)
		}
		if f.toast && !f.toastReplace {
			f.flagToast = g.obf.Bool(r.FlagToastGivenToast)
		}
		if f.a11y && f.saw && f.addRemove && !f.a11yAttack {
			f.flagA11y = g.obf.Bool(r.FlagA11yGivenBenign)
		}
	}
	return f
}

// Next generates one APK.
func (g *Generator) Next() APK {
	g.n++
	pkg := fmt.Sprintf("com.gen.app%06d", g.base+g.n)
	f := g.draw()
	ir := buildIR(pkg, f)
	truth := Truth{
		Overlay:      f.saw && f.addRemove,
		Toast:        f.toast,
		ToastReplace: f.toastReplace,
		A11yTiming:   f.a11yAttack,
	}
	return APK{
		Package:  pkg,
		Manifest: buildManifest(pkg, f),
		DexRefs:  ir.MethodRefTable(),
		IR:       ir,
		Truth:    truth,
	}
}

// buildManifest renders the AndroidManifest.xml view.
func buildManifest(pkg string, f features) string {
	var sb strings.Builder
	sb.WriteString(`<manifest xmlns:android="http://schemas.android.com/apk/res/android" package="` + pkg + "\">\n")
	for _, i := range f.fillerPermIdx {
		fmt.Fprintf(&sb, "  <uses-permission android:name=%q/>\n", fillerPermissions[i])
	}
	if f.saw {
		fmt.Fprintf(&sb, "  <uses-permission android:name=%q/>\n", PermSystemAlertWindow)
	}
	sb.WriteString("  <application>\n")
	if f.a11y {
		fmt.Fprintf(&sb, "    <service android:name=%q android:permission=%q/>\n",
			pkg+".AccessService", PermBindAccessibility)
	}
	sb.WriteString("  </application>\n</manifest>\n")
	return sb.String()
}

// overlayCallPair emits the addView+removeView call sites for a capable
// app in the requested dispatch style. The split and cross-method styles
// also return the helper methods the dispatch depends on (an Obf class),
// which the caller installs alongside Main.
func overlayCallPair(pkg string, f features) (body []dexir.Instruction, helpers []dexir.Method) {
	switch {
	case f.deepReflect:
		// Class/method strings assembled at runtime: the const-strings
		// present are fragments no resolver maps to a method.
		return []dexir.Instruction{
			{Op: dexir.OpConstString, Str: "android.view.Window"},
			{Op: dexir.OpConstString, Str: "add"},
			{Op: dexir.OpReflectInvoke, InLoop: true},
			{Op: dexir.OpConstString, Str: "remove"},
			{Op: dexir.OpReflectInvoke, InLoop: true},
		}, nil
	case f.reflect:
		return []dexir.Instruction{
			{Op: dexir.OpConstString, Str: "android.view.WindowManager"},
			{Op: dexir.OpConstString, Str: "addView"},
			{Op: dexir.OpReflectInvoke, InLoop: true},
			{Op: dexir.OpConstString, Str: "android.view.WindowManager"},
			{Op: dexir.OpConstString, Str: "removeView"},
			{Op: dexir.OpReflectInvoke, InLoop: true},
		}, nil
	case f.splitReflect:
		// Names split across concatenated fragments: the rolling window
		// sees pairs like ("add","View") that resolve to nothing, so only
		// register-tracking constant propagation recovers the sinks.
		return []dexir.Instruction{
			{Op: dexir.OpConstString, Dst: 1, Str: "android.view.Window"},
			{Op: dexir.OpConstString, Dst: 2, Str: "Manager"},
			{Op: dexir.OpConcat, Dst: 3, SrcA: 1, SrcB: 2},
			{Op: dexir.OpConstString, Dst: 4, Str: "add"},
			{Op: dexir.OpConstString, Dst: 5, Str: "View"},
			{Op: dexir.OpConcat, Dst: 6, SrcA: 4, SrcB: 5},
			{Op: dexir.OpReflectInvoke, ClassReg: 3, MethodReg: 6, InLoop: true},
			{Op: dexir.OpConstString, Dst: 7, Str: "remove"},
			{Op: dexir.OpConcat, Dst: 8, SrcA: 7, SrcB: 5},
			{Op: dexir.OpMove, Dst: 9, SrcA: 3},
			{Op: dexir.OpReflectInvoke, ClassReg: 9, MethodReg: 8, InLoop: true},
		}, nil
	case f.crossReflect:
		// Names returned by helper methods: no const-string appears in the
		// dispatching body at all, so only interprocedural constant-return
		// summaries recover the sinks.
		obfCls := dexir.ClassName(pkg, "Obf")
		target := dexir.Ref(obfCls, "target", "()Ljava/lang/String;")
		action := dexir.Ref(obfCls, "action", "()Ljava/lang/String;")
		undo := dexir.Ref(obfCls, "undo", "()Ljava/lang/String;")
		helpers = []dexir.Method{
			{Ref: target, Body: []dexir.Instruction{
				{Op: dexir.OpConstString, Dst: 1, Str: "android.view.Window"},
				{Op: dexir.OpConstString, Dst: 2, Str: "Manager"},
				{Op: dexir.OpConcat, Dst: 3, SrcA: 1, SrcB: 2},
				{Op: dexir.OpReturn, SrcA: 3},
			}},
			{Ref: action, Body: []dexir.Instruction{
				{Op: dexir.OpConstString, Dst: 1, Str: "addView"},
				{Op: dexir.OpReturn, SrcA: 1},
			}},
			{Ref: undo, Body: []dexir.Instruction{
				{Op: dexir.OpConstString, Dst: 1, Str: "removeView"},
				{Op: dexir.OpReturn, SrcA: 1},
			}},
		}
		return []dexir.Instruction{
			{Op: dexir.OpInvoke, Target: target, Dst: 1},
			{Op: dexir.OpInvoke, Target: action, Dst: 2},
			{Op: dexir.OpReflectInvoke, ClassReg: 1, MethodReg: 2, InLoop: true},
			{Op: dexir.OpInvoke, Target: undo, Dst: 3},
			{Op: dexir.OpReflectInvoke, ClassReg: 1, MethodReg: 3, InLoop: true},
		}, helpers
	default:
		return []dexir.Instruction{
			{Op: dexir.OpInvoke, Target: dexir.RefAddView, InLoop: true},
			{Op: dexir.OpInvoke, Target: dexir.RefRemoveView, InLoop: true},
		}, nil
	}
}

// buildIR assembles the instruction-level view of one app.
func buildIR(pkg string, f features) *dexir.App {
	mainCls := dexir.ClassName(pkg, "Main")
	onCreate := dexir.Ref(mainCls, "onCreate", "(Landroid/os/Bundle;)V")
	swap := dexir.Ref(mainCls, "swap", "()V")
	toastLoop := dexir.Ref(mainCls, "toastLoop", "()V")
	debugOverlay := dexir.Ref(mainCls, "debugOverlay", "()V")
	betaOverlay := dexir.Ref(mainCls, "betaOverlay", "()V")

	// Flag-guarded decoys share one constant-false BuildConfig-style flag
	// per app, assigned by a <clinit> the Tier2 flag table reads.
	var decoyFlag string
	if f.flagOverlay || f.flagToast || f.flagA11y {
		decoyFlag = dexir.ClassName(pkg, "BuildConfig") + "->DEBUG_DECOR"
	}

	var onCreateBody []dexir.Instruction
	for _, i := range f.fillerRefIdx {
		onCreateBody = append(onCreateBody, dexir.Instruction{Op: dexir.OpInvoke, Target: fillerRefs[i]})
	}
	mainMethods := []dexir.Method{{}} // onCreate placeholder, filled below
	var obfMethods []dexir.Method

	if f.addRemove {
		onCreateBody = append(onCreateBody, dexir.Instruction{
			Op: dexir.OpRegisterCallback, Target: dexir.RefHandlerPostDelayed, Callback: swap,
		})
		body, helpers := overlayCallPair(pkg, f)
		obfMethods = helpers
		body = append(body, dexir.Instruction{
			Op: dexir.OpRegisterCallback, Target: dexir.RefHandlerPostDelayed, Callback: swap,
		})
		mainMethods = append(mainMethods, dexir.Method{Ref: swap, Body: body})
	}
	if f.guardedOverlay {
		onCreateBody = append(onCreateBody, dexir.Instruction{Op: dexir.OpInvoke, Target: debugOverlay})
		mainMethods = append(mainMethods, dexir.Method{Ref: debugOverlay, Body: []dexir.Instruction{
			{Op: dexir.OpInvoke, Target: dexir.RefAddView, Guard: dexir.GuardAlwaysFalse},
			{Op: dexir.OpInvoke, Target: dexir.RefRemoveView, Guard: dexir.GuardAlwaysFalse},
		}})
	}
	if f.flagOverlay {
		onCreateBody = append(onCreateBody, dexir.Instruction{Op: dexir.OpInvoke, Target: betaOverlay})
		mainMethods = append(mainMethods, dexir.Method{Ref: betaOverlay, Body: []dexir.Instruction{
			{Op: dexir.OpInvoke, Target: dexir.RefAddView, Guard: dexir.GuardFlag, Flag: decoyFlag},
			{Op: dexir.OpInvoke, Target: dexir.RefRemoveView, Guard: dexir.GuardFlag, Flag: decoyFlag},
		}})
	}
	if f.toast {
		onCreateBody = append(onCreateBody, dexir.Instruction{
			Op: dexir.OpRegisterCallback, Target: dexir.RefHandlerPostDelayed, Callback: toastLoop,
		})
		body := []dexir.Instruction{
			{Op: dexir.OpInvoke, Target: dexir.RefToastSetView},
			{Op: dexir.OpInvoke, Target: dexir.RefToastShow},
		}
		if f.toastReplace {
			body = append(body, dexir.Instruction{
				Op: dexir.OpRegisterCallback, Target: dexir.RefHandlerPostDelayed, Callback: toastLoop,
			})
		}
		if f.flagToast {
			// A flag-guarded self re-enqueue: the re-show signature exists
			// on paths a Tier2 pass can prove dead.
			body = append(body, dexir.Instruction{
				Op: dexir.OpRegisterCallback, Target: dexir.RefHandlerPostDelayed, Callback: toastLoop,
				Guard: dexir.GuardFlag, Flag: decoyFlag,
			})
		}
		mainMethods = append(mainMethods, dexir.Method{Ref: toastLoop, Body: body})
	}
	mainMethods[0] = dexir.Method{Ref: onCreate, Body: onCreateBody}

	app := &dexir.App{
		Package: pkg,
		Classes: []dexir.Class{{Name: mainCls, Methods: mainMethods}},
		Components: []dexir.Component{
			{Name: mainCls, Kind: dexir.Activity, EntryPoints: []dexir.MethodRef{onCreate}},
		},
	}
	if len(obfMethods) > 0 {
		app.Classes = append(app.Classes, dexir.Class{Name: dexir.ClassName(pkg, "Obf"), Methods: obfMethods})
	}
	if decoyFlag != "" {
		cfgCls := dexir.ClassName(pkg, "BuildConfig")
		app.Classes = append(app.Classes, dexir.Class{Name: cfgCls, Methods: []dexir.Method{
			{Ref: dexir.Ref(cfgCls, "<clinit>", "()V"), Body: []dexir.Instruction{
				{Op: dexir.OpSetFlag, Flag: decoyFlag, BoolVal: false},
			}},
		}})
	}
	if f.saw {
		app.Permissions = append(app.Permissions, PermSystemAlertWindow)
	}
	if f.deadOverlay {
		adCls := dexir.ClassName(pkg, "AdSdk")
		app.Classes = append(app.Classes, dexir.Class{Name: adCls, Methods: []dexir.Method{
			{Ref: dexir.Ref(adCls, "floatHelper", "()V"), Body: []dexir.Instruction{
				{Op: dexir.OpInvoke, Target: dexir.RefAddView},
				{Op: dexir.OpInvoke, Target: dexir.RefRemoveView},
			}},
		}})
	}
	if f.deadToast {
		promoCls := dexir.ClassName(pkg, "PromoSdk")
		app.Classes = append(app.Classes, dexir.Class{Name: promoCls, Methods: []dexir.Method{
			{Ref: dexir.Ref(promoCls, "legacyBanner", "()V"), Body: []dexir.Instruction{
				{Op: dexir.OpInvoke, Target: dexir.RefToastSetView},
				{Op: dexir.OpInvoke, Target: dexir.RefToastShow},
			}},
		}})
	}
	if f.a11y {
		app.Permissions = append(app.Permissions, PermBindAccessibility)
		accCls := dexir.ClassName(pkg, "AccessService")
		onEvent := dexir.Ref(accCls, "onAccessibilityEvent", "(Landroid/view/accessibility/AccessibilityEvent;)V")
		var evBody []dexir.Instruction
		if f.a11yAttack {
			evBody = append(evBody, dexir.Instruction{Op: dexir.OpInvoke, Target: swap})
		} else {
			evBody = append(evBody, dexir.Instruction{Op: dexir.OpNop})
			if f.flagA11y {
				// Benign service with flag-guarded attack wiring: the event
				// handler reaches the overlay pair only on a path Tier2
				// proves dead.
				evBody = append(evBody, dexir.Instruction{
					Op: dexir.OpInvoke, Target: swap, Guard: dexir.GuardFlag, Flag: decoyFlag,
				})
			}
		}
		app.Classes = append(app.Classes, dexir.Class{Name: accCls, Methods: []dexir.Method{{Ref: onEvent, Body: evBody}}})
		app.Components = append(app.Components, dexir.Component{
			Name: accCls, Kind: dexir.AccessibilityService, EntryPoints: []dexir.MethodRef{onEvent},
		})
	}
	return app
}

// GenerateApps returns apps start..start+n-1 (0-based) of the seeded
// synthetic corpus — the exact APKs the market study scans at those
// positions, for any worker count. The corpus is a pure function of the
// seed: app i lives in chunk i/StudyChunkSize, whose generator stream is
// derived from (seed, chunk), so a range is produced by regenerating each
// touched chunk's prefix once. vetd's tests and cmd/vetload share this
// accessor with the study instead of duplicating the generator.
func GenerateApps(seed int64, start, n int) ([]APK, error) {
	out := make([]APK, 0, max(n, 0))
	if err := walkRange(seed, start, n, PaperRates(), func(apk APK) { out = append(out, apk) }); err != nil {
		return nil, err
	}
	return out, nil
}

// walkRange generates apps [start, start+n) of the corpus seeded by seed
// at the given rates and hands each to visit, in corpus order. Each
// touched chunk is regenerated from its own stream, skipping the prefix
// before start.
func walkRange(seed int64, start, n int, rates Rates, visit func(APK)) error {
	if start < 0 {
		return fmt.Errorf("appstore: negative corpus index %d", start)
	}
	if n <= 0 {
		return fmt.Errorf("appstore: non-positive app count %d", n)
	}
	if err := validateRates(rates); err != nil {
		return err
	}
	end := start + n
	for chunk := start / StudyChunkSize; chunk*StudyChunkSize < end; chunk++ {
		lo := chunk * StudyChunkSize
		gen, err := newGeneratorAt(chunkStream(seed, chunk), rates, lo)
		if err != nil {
			return err
		}
		for i := lo; i < min(lo+StudyChunkSize, end); i++ {
			if apk := gen.Next(); i >= start {
				visit(apk)
			}
		}
	}
	return nil
}

// GenerateApp returns one app of the seeded corpus: app i's IR plus its
// ground-truth label, identical to what the study's scan visits at
// position i. Cost is O(i mod StudyChunkSize) — the chunk prefix is
// regenerated — so callers wanting a contiguous range should use
// GenerateApps.
func GenerateApp(seed int64, i int) (*dexir.App, Truth, error) {
	apks, err := GenerateApps(seed, i, 1)
	if err != nil {
		return nil, Truth{}, err
	}
	return apks[0].IR, apks[0].Truth, nil
}

// ScanResult is the grep baseline's per-app outcome.
type ScanResult struct {
	HasSAW          bool
	HasA11yService  bool
	CallsAddView    bool
	CallsRemoveView bool
	UsesCustomToast bool
}

// ScanManifest is the aapt-style pass: it parses the manifest text for the
// overlay permission and accessibility services.
func ScanManifest(manifest string) (hasSAW, hasA11y bool) {
	for _, line := range strings.Split(manifest, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "<uses-permission"):
			if name, ok := xmlAttr(line, "android:name"); ok && name == PermSystemAlertWindow {
				hasSAW = true
			}
		case strings.HasPrefix(line, "<service"):
			if perm, ok := xmlAttr(line, "android:permission"); ok && perm == PermBindAccessibility {
				hasA11y = true
			}
		}
	}
	return hasSAW, hasA11y
}

// xmlAttr extracts a quoted attribute value from a single-line XML tag.
func xmlAttr(line, attr string) (string, bool) {
	marker := attr + `="`
	i := strings.Index(line, marker)
	if i < 0 {
		return "", false
	}
	rest := line[i+len(marker):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return "", false
	}
	return rest[:j], true
}

// ScanDex is the grep baseline: it searches the flat method-reference
// table for the WindowManager and Toast signatures of interest, with no
// notion of reachability.
func ScanDex(refs []string) (addView, removeView, customToast bool) {
	for _, r := range refs {
		switch r {
		case RefAddView:
			addView = true
		case RefRemoveView:
			removeView = true
		case RefToastSetView:
			customToast = true
		}
	}
	return addView, removeView, customToast
}

// Scan runs the manifest pass and the grep baseline over one APK.
func Scan(apk APK) ScanResult {
	var res ScanResult
	res.HasSAW, res.HasA11yService = ScanManifest(apk.Manifest)
	res.CallsAddView, res.CallsRemoveView, res.UsesCustomToast = ScanDex(apk.DexRefs)
	return res
}

// AppScan is the full per-app analysis: the grep baseline, the call-graph
// static analysis, and the generator's ground truth side by side.
type AppScan struct {
	Grep   ScanResult
	Static staticanalysis.Result
	Truth  Truth
}

// ScanApp runs every analyzer over one APK at Tier0, the paper-baseline
// static configuration.
func ScanApp(apk APK) AppScan {
	return ScanAppTier(apk, staticanalysis.Tier0)
}

// ScanAppTier runs every analyzer over one APK with the static pass at
// the given precision tier (the grep baseline has no tiers).
func ScanAppTier(apk APK, tier staticanalysis.Tier) AppScan {
	return AppScan{Grep: Scan(apk), Static: staticanalysis.AnalyzeTier(apk.IR, tier), Truth: apk.Truth}
}

// DetectorStats is a per-analyzer confusion matrix against ground truth.
type DetectorStats struct {
	TP, FP, FN, TN int
}

func (d *DetectorStats) add(pred, truth bool) {
	switch {
	case pred && truth:
		d.TP++
	case pred && !truth:
		d.FP++
	case !pred && truth:
		d.FN++
	default:
		d.TN++
	}
}

func (d *DetectorStats) merge(o DetectorStats) {
	d.TP += o.TP
	d.FP += o.FP
	d.FN += o.FN
	d.TN += o.TN
}

// Precision is TP/(TP+FP); 1 when the analyzer made no positive calls.
func (d DetectorStats) Precision() float64 {
	if d.TP+d.FP == 0 {
		return 1
	}
	return float64(d.TP) / float64(d.TP+d.FP)
}

// Recall is TP/(TP+FN); 1 when there were no positives to find.
func (d DetectorStats) Recall() float64 {
	if d.TP+d.FN == 0 {
		return 1
	}
	return float64(d.TP) / float64(d.TP+d.FN)
}

// F1 is the harmonic mean of precision and recall; 0 when both are 0.
func (d DetectorStats) F1() float64 {
	p, r := d.Precision(), d.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Report aggregates the Section VI-C2 counts for every analyzer plus the
// confusion matrices against ground truth.
type Report struct {
	// Total is the number of apps scanned.
	Total int
	// OverlayPlusA11y counts apps with SYSTEM_ALERT_WINDOW and a
	// registered accessibility service (manifest pass; paper: 4,405).
	OverlayPlusA11y int
	// AddRemoveWithSAW is the call-graph analyzer's draw-and-destroy
	// count — the FlowDroid-analogue headline (paper: 18,887).
	AddRemoveWithSAW int
	// CustomToast is the call-graph analyzer's reachable-setView count
	// (paper: 15,179).
	CustomToast int

	// GrepAddRemoveWithSAW and GrepCustomToast are the flat-reference
	// baseline's counts for the same two rows.
	GrepAddRemoveWithSAW int
	GrepCustomToast      int

	// TruthAddRemoveWithSAW and TruthCustomToast are the ground-truth
	// counts.
	TruthAddRemoveWithSAW int
	TruthCustomToast      int

	// ToastReplaceCapable and A11yTimingCapable are the static analyzer's
	// capability sub-counts (no paper row; reported for the §VII vetting
	// defense), with TruthToastReplace and TruthA11yTiming the matching
	// ground-truth counts.
	ToastReplaceCapable int
	A11yTimingCapable   int
	TruthToastReplace   int
	TruthA11yTiming     int

	// Tier is the static pass's precision tier for every scan in the
	// report (the grep rows are tier-independent).
	Tier staticanalysis.Tier

	// Sink-evidence breakdown across all static findings: total call
	// sites, and how many were guarded (dead or flag-dead paths — gone at
	// Tier1/Tier2) or reflective (const-string resolved — more at Tier2).
	SinkSites           int
	GuardedSinkSites    int
	ReflectiveSinkSites int

	// Confusion matrices against ground truth.
	StaticOverlay      DetectorStats
	GrepOverlay        DetectorStats
	StaticToast        DetectorStats
	GrepToast          DetectorStats
	StaticToastReplace DetectorStats
	StaticA11y         DetectorStats
}

// Add folds one scanned app into the report.
func (r *Report) Add(s AppScan) {
	r.Total++
	if s.Grep.HasSAW && s.Grep.HasA11yService {
		r.OverlayPlusA11y++
	}
	grepOverlay := s.Grep.HasSAW && s.Grep.CallsAddView && s.Grep.CallsRemoveView
	if s.Static.DrawAndDestroy {
		r.AddRemoveWithSAW++
	}
	if grepOverlay {
		r.GrepAddRemoveWithSAW++
	}
	if s.Truth.Overlay {
		r.TruthAddRemoveWithSAW++
	}
	if s.Static.SetViewReachable {
		r.CustomToast++
	}
	if s.Grep.UsesCustomToast {
		r.GrepCustomToast++
	}
	if s.Truth.Toast {
		r.TruthCustomToast++
	}
	if s.Static.ToastReplace {
		r.ToastReplaceCapable++
	}
	if s.Static.A11yTiming {
		r.A11yTimingCapable++
	}
	if s.Truth.ToastReplace {
		r.TruthToastReplace++
	}
	if s.Truth.A11yTiming {
		r.TruthA11yTiming++
	}
	r.Tier = s.Static.Tier
	r.SinkSites += s.Static.SinkSites
	r.GuardedSinkSites += s.Static.GuardedSinkSites
	r.ReflectiveSinkSites += s.Static.ReflectiveSinkSites
	r.StaticOverlay.add(s.Static.DrawAndDestroy, s.Truth.Overlay)
	r.GrepOverlay.add(grepOverlay, s.Truth.Overlay)
	r.StaticToast.add(s.Static.SetViewReachable, s.Truth.Toast)
	r.GrepToast.add(s.Grep.UsesCustomToast, s.Truth.Toast)
	r.StaticToastReplace.add(s.Static.ToastReplace, s.Truth.ToastReplace)
	r.StaticA11y.add(s.Static.A11yTiming, s.Truth.A11yTiming)
}

// Merge folds another report (e.g. a worker's chunk) into r.
func (r *Report) Merge(o Report) {
	r.Total += o.Total
	r.OverlayPlusA11y += o.OverlayPlusA11y
	r.AddRemoveWithSAW += o.AddRemoveWithSAW
	r.CustomToast += o.CustomToast
	r.GrepAddRemoveWithSAW += o.GrepAddRemoveWithSAW
	r.GrepCustomToast += o.GrepCustomToast
	r.TruthAddRemoveWithSAW += o.TruthAddRemoveWithSAW
	r.TruthCustomToast += o.TruthCustomToast
	r.ToastReplaceCapable += o.ToastReplaceCapable
	r.A11yTimingCapable += o.A11yTimingCapable
	r.TruthToastReplace += o.TruthToastReplace
	r.TruthA11yTiming += o.TruthA11yTiming
	r.Tier = o.Tier
	r.SinkSites += o.SinkSites
	r.GuardedSinkSites += o.GuardedSinkSites
	r.ReflectiveSinkSites += o.ReflectiveSinkSites
	r.StaticOverlay.merge(o.StaticOverlay)
	r.GrepOverlay.merge(o.GrepOverlay)
	r.StaticToast.merge(o.StaticToast)
	r.GrepToast.merge(o.GrepToast)
	r.StaticToastReplace.merge(o.StaticToastReplace)
	r.StaticA11y.merge(o.StaticA11y)
}

// String renders the report next to the paper's numbers, including the
// grep-versus-reachability comparison and per-analyzer precision/recall.
func (r Report) String() string {
	scale := float64(r.Total) / float64(PaperCorpusSize)
	var sb strings.Builder
	fmt.Fprintf(&sb, "scanned %d apps\n", r.Total)
	fmt.Fprintf(&sb, "  SYSTEM_ALERT_WINDOW + accessibility service: %d (paper: %d, scaled %.0f)\n",
		r.OverlayPlusA11y, PaperOverlayPlusA11y, scale*PaperOverlayPlusA11y)
	fmt.Fprintf(&sb, "  addView+removeView with SYSTEM_ALERT_WINDOW: %d (paper: %d, scaled %.0f)\n",
		r.AddRemoveWithSAW, PaperAddRemoveWithSAW, scale*PaperAddRemoveWithSAW)
	fmt.Fprintf(&sb, "  customized toast:                            %d (paper: %d, scaled %.0f)\n",
		r.CustomToast, PaperCustomToast, scale*PaperCustomToast)
	fmt.Fprintf(&sb, "  capability sub-counts: toast-replace %d, a11y-timing %d\n",
		r.ToastReplaceCapable, r.A11yTimingCapable)
	fmt.Fprintf(&sb, "  static pass: %s (%s)\n", r.Tier, r.Tier.Describe())
	fmt.Fprintf(&sb, "  sink evidence: %d call sites (%d guarded, %d reflective)\n",
		r.SinkSites, r.GuardedSinkSites, r.ReflectiveSinkSites)
	sb.WriteString("  analyzer comparison (vs generator ground truth):\n")
	fmt.Fprintf(&sb, "    %-28s %8s %8s %10s %8s\n", "detector", "count", "truth", "precision", "recall")
	row := func(name string, count, truth int, st DetectorStats) {
		fmt.Fprintf(&sb, "    %-28s %8d %8d %9.1f%% %7.1f%%\n",
			name, count, truth, 100*st.Precision(), 100*st.Recall())
	}
	row("overlay  call-graph", r.AddRemoveWithSAW, r.TruthAddRemoveWithSAW, r.StaticOverlay)
	row("overlay  grep baseline", r.GrepAddRemoveWithSAW, r.TruthAddRemoveWithSAW, r.GrepOverlay)
	row("toast    call-graph", r.CustomToast, r.TruthCustomToast, r.StaticToast)
	row("toast    grep baseline", r.GrepCustomToast, r.TruthCustomToast, r.GrepToast)
	row("toast-replace call-graph", r.ToastReplaceCapable, r.TruthToastReplace, r.StaticToastReplace)
	row("a11y-timing call-graph", r.A11yTimingCapable, r.TruthA11yTiming, r.StaticA11y)
	return sb.String()
}

// StudyChunkSize is the generation/scan unit of the corpus study. Each
// chunk derives an independent random stream from (seed, chunk index), so
// the corpus content is a pure function of the seed, and ranges aligned
// to chunk boundaries (the corpus and precision experiments' per-chunk
// trials) can be generated and scanned independently, in any order.
const StudyChunkSize = 4096

// chunkStream derives the deterministic stream for one chunk.
func chunkStream(seed int64, chunk int) *simrand.Source {
	return simrand.New(seed).DeriveIndexed("corpus-chunk", chunk)
}

// ScanRange generates and scans apps [start, start+n) of the corpus
// seeded by seed — the same apps a full study visits at those positions —
// with the given rates and analysis tier. Ranges aligned to
// StudyChunkSize regenerate no prefix; the corpus and precision
// experiments' trials are exactly such ranges, one Report each, merged in
// trial order.
func ScanRange(seed int64, start, n int, rates Rates, tier staticanalysis.Tier) (Report, error) {
	rep := Report{Tier: tier}
	if err := walkRange(seed, start, n, rates, func(apk APK) { rep.Add(ScanAppTier(apk, tier)) }); err != nil {
		return Report{}, err
	}
	return rep, nil
}

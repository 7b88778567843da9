// Package dexir defines a DEX-like intermediate representation for the
// Section VI-C2 app-market study and the Section VII static vetting
// defense. A real APK ships its code as DEX bytecode; the analyses the
// paper ran with FlowDroid operate on (a) the flat method-reference table
// — what a grep-style scanner sees — and (b) the instruction stream, from
// which a call graph and interprocedural reachability can be computed.
//
// This package models exactly the slice of DEX that distinguishes those
// two analyses:
//
//   - Classes hold methods; methods hold instructions.
//   - OpInvoke calls a framework or app method directly: its target lands
//     in the method-reference table (grep sees it, even in dead code).
//   - OpRegisterCallback models Handler.postDelayed / Timer.schedule /
//     listener registration: the framework target is in the ref table and
//     the call graph gains an edge to the callback method.
//   - OpConstString + OpReflectInvoke model java.lang.reflect dispatch:
//     the *strings* are in the string table but the resolved target never
//     appears in the method-reference table, so grep misses it while a
//     FlowDroid-style constant-string resolver does not.
//   - OpMove / OpConcat / OpReturn model the register dataflow that
//     obfuscated reflection rides on: class and method names split across
//     concatenated const-string fragments, or returned as constants from
//     helper methods. Only an interprocedural constant-propagation pass
//     (staticanalysis Tier2) follows them; the rolling const-string window
//     of the baseline pass does not.
//   - GuardAlwaysFalse marks an instruction behind a branch that can never
//     execute; a path-insensitive reachability pass still traverses it
//     (a deliberate over-approximation, as in real analyzers). GuardFlag
//     marks a branch on a named whole-program boolean (a BuildConfig-style
//     constant set by OpSetFlag); a pass that propagates those constants
//     can prune the branch when the flag is statically false.
//
// Manifest-declared components carry their lifecycle entry points, the
// roots of the reachability pass.
package dexir

import (
	"fmt"
	"sort"
	"strings"
)

// MethodRef is a DEX-style method reference,
// e.g. "Landroid/view/WindowManager;->addView(Landroid/view/View;Landroid/view/ViewGroup$LayoutParams;)V".
type MethodRef string

// Class extracts the declaring-class portion of the reference
// ("Landroid/view/WindowManager;"), or "" if malformed.
func (r MethodRef) Class() string {
	if i := strings.Index(string(r), ";->"); i >= 0 {
		return string(r)[:i+1]
	}
	return ""
}

// Name extracts the bare method name ("addView"), or "" if malformed.
func (r MethodRef) Name() string {
	i := strings.Index(string(r), ";->")
	if i < 0 {
		return ""
	}
	rest := string(r)[i+3:]
	if j := strings.IndexByte(rest, '('); j >= 0 {
		return rest[:j]
	}
	return ""
}

// Framework method references the detectors treat as sinks or as callback
// registration points. These mirror the constants the paper's FlowDroid
// configuration lists.
const (
	RefAddView      MethodRef = "Landroid/view/WindowManager;->addView(Landroid/view/View;Landroid/view/ViewGroup$LayoutParams;)V"
	RefRemoveView   MethodRef = "Landroid/view/WindowManager;->removeView(Landroid/view/View;)V"
	RefToastSetView MethodRef = "Landroid/widget/Toast;->setView(Landroid/view/View;)V"
	RefToastShow    MethodRef = "Landroid/widget/Toast;->show()V"

	RefHandlerPostDelayed MethodRef = "Landroid/os/Handler;->postDelayed(Ljava/lang/Runnable;J)Z"
	RefTimerScheduleRate  MethodRef = "Ljava/util/Timer;->scheduleAtFixedRate(Ljava/util/TimerTask;JJ)V"

	RefReflectInvoke MethodRef = "Ljava/lang/reflect/Method;->invoke(Ljava/lang/Object;[Ljava/lang/Object;)Ljava/lang/Object;"
)

// Permission strings the vetting detectors consult.
const (
	PermSystemAlertWindow = "android.permission.SYSTEM_ALERT_WINDOW"
	PermBindAccessibility = "android.permission.BIND_ACCESSIBILITY_SERVICE"
)

// reflectiveTargets maps (binary class name, method name) const-string
// pairs to the framework reference a constant-propagating resolver would
// recover. Real FlowDroid setups resolve exactly these easy cases; strings
// assembled at runtime stay unresolved.
var reflectiveTargets = map[[2]string]MethodRef{
	{"android.view.WindowManager", "addView"}:    RefAddView,
	{"android.view.WindowManager", "removeView"}: RefRemoveView,
	{"android.widget.Toast", "setView"}:          RefToastSetView,
	{"android.widget.Toast", "show"}:             RefToastShow,
}

// ResolveReflective resolves a (class, method) const-string pair to a
// framework reference, reporting whether the resolver knows the pair.
func ResolveReflective(class, method string) (MethodRef, bool) {
	ref, ok := reflectiveTargets[[2]string{class, method}]
	return ref, ok
}

// Op enumerates instruction kinds.
type Op int

// Instruction kinds. OpNop stands in for arbitrary non-call bytecode.
const (
	OpNop Op = iota
	// OpInvoke calls Target directly (framework or app method).
	OpInvoke
	// OpRegisterCallback invokes the framework registration method Target
	// (e.g. Handler.postDelayed) passing the app method Callback; the call
	// graph gains a callback edge to Callback.
	OpRegisterCallback
	// OpConstString loads Str; consecutive const-strings feed a following
	// OpReflectInvoke.
	OpConstString
	// OpReflectInvoke calls java.lang.reflect.Method.invoke. The actual
	// target is whatever the two preceding OpConstString instructions
	// resolve to; if they don't resolve, the call is opaque. When ClassReg
	// and MethodReg are both set, the class/method names live in registers
	// instead, and only a register-tracking pass can resolve the call.
	OpReflectInvoke
	// OpMove copies register SrcA into Dst.
	OpMove
	// OpConcat stores SrcA + SrcB (string concatenation) into Dst.
	OpConcat
	// OpReturn returns the string in register SrcA to the caller; an
	// OpInvoke with Dst set receives it.
	OpReturn
	// OpSetFlag assigns the whole-program boolean Flag the constant
	// BoolVal, modeling a BuildConfig-style static field initializer.
	OpSetFlag
)

// Guard marks control-flow context for an instruction.
type Guard int

// Guard values.
const (
	// GuardNone: the instruction executes whenever the method runs.
	GuardNone Guard = iota
	// GuardAlwaysFalse: the instruction sits behind a branch whose
	// condition is statically (but not syntactically) false — dead at
	// runtime, alive to a path-insensitive analysis.
	GuardAlwaysFalse
	// GuardFlag: the instruction sits behind a branch on the named
	// whole-program boolean Flag. It is live unless a pass proves the
	// flag constant-false from the app's OpSetFlag assignments.
	GuardFlag
)

// Reg names a string register inside a method body. Registers are method-
// local; 0 means "no register" so the zero-valued Instruction keeps its
// pre-dataflow meaning.
type Reg int

// Instruction is one IR instruction.
type Instruction struct {
	Op Op
	// Target is the invoked or registration framework/app method.
	Target MethodRef
	// Callback is the app method registered by OpRegisterCallback.
	Callback MethodRef
	// Str is the OpConstString payload.
	Str string
	// InLoop marks the instruction as sitting inside an intra-method loop.
	InLoop bool
	// Guard marks unreachable-at-runtime context.
	Guard Guard
	// Flag names the whole-program boolean for OpSetFlag and GuardFlag.
	Flag string `json:",omitempty"`
	// BoolVal is the constant OpSetFlag assigns to Flag.
	BoolVal bool `json:",omitempty"`
	// Dst receives the result of OpConstString, OpMove, OpConcat, or an
	// OpInvoke of a string-returning method.
	Dst Reg `json:",omitempty"`
	// SrcA is the source register of OpMove and OpReturn, and the left
	// operand of OpConcat; SrcB is OpConcat's right operand.
	SrcA Reg `json:",omitempty"`
	SrcB Reg `json:",omitempty"`
	// ClassReg and MethodReg, when both nonzero, carry the class and
	// method name of an OpReflectInvoke in registers.
	ClassReg  Reg `json:",omitempty"`
	MethodReg Reg `json:",omitempty"`
}

// Method is an app-defined method with a body.
type Method struct {
	Ref  MethodRef
	Body []Instruction
}

// Class is an app-defined class.
type Class struct {
	Name    string // binary name, e.g. "Lcom/gen/app000001/Main;"
	Methods []Method
}

// ComponentKind enumerates manifest component types.
type ComponentKind int

// Component kinds.
const (
	Activity ComponentKind = iota
	Service
	Receiver
	// AccessibilityService is a Service bound with
	// android.permission.BIND_ACCESSIBILITY_SERVICE.
	AccessibilityService
)

// String names the kind for reports.
func (k ComponentKind) String() string {
	switch k {
	case Activity:
		return "activity"
	case Service:
		return "service"
	case Receiver:
		return "receiver"
	case AccessibilityService:
		return "accessibility-service"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Component is a manifest-declared component with its lifecycle entry
// points (the reachability roots).
type Component struct {
	Name        string
	Kind        ComponentKind
	EntryPoints []MethodRef
}

// App is one application's IR: the unit the static analyzer consumes.
type App struct {
	Package     string
	Permissions []string
	Components  []Component
	Classes     []Class

	methods map[MethodRef]*Method // lazy index
}

// HasPermission reports whether the app requests the permission.
func (a *App) HasPermission(perm string) bool {
	for _, p := range a.Permissions {
		if p == perm {
			return true
		}
	}
	return false
}

// Method looks up an app-defined method by reference.
func (a *App) Method(ref MethodRef) (*Method, bool) {
	if a.methods == nil {
		a.methods = make(map[MethodRef]*Method)
		for ci := range a.Classes {
			c := &a.Classes[ci]
			for mi := range c.Methods {
				a.methods[c.Methods[mi].Ref] = &c.Methods[mi]
			}
		}
	}
	m, ok := a.methods[ref]
	return m, ok
}

// MethodRefTable returns the flat, sorted, deduplicated method-reference
// table — what `classes.dex` exposes to a grep-style scanner. Direct and
// registration targets appear (including those in dead code); reflective
// targets do not (they exist only as const-strings).
func (a *App) MethodRefTable() []string {
	seen := make(map[string]bool, 16)
	var out []string
	add := func(r MethodRef) {
		if r == "" || seen[string(r)] {
			return
		}
		seen[string(r)] = true
		out = append(out, string(r))
	}
	for _, c := range a.Classes {
		for _, m := range c.Methods {
			for _, in := range m.Body {
				switch in.Op {
				case OpInvoke:
					add(in.Target)
				case OpRegisterCallback:
					add(in.Target)
					add(in.Callback)
				case OpReflectInvoke:
					add(RefReflectInvoke)
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// ClassName builds a binary class name from a package and simple name,
// e.g. ClassName("com.gen.app1", "Main") = "Lcom/gen/app1/Main;".
func ClassName(pkg, simple string) string {
	return "L" + strings.ReplaceAll(pkg, ".", "/") + "/" + simple + ";"
}

// Ref builds an app method reference from a binary class name, method
// name and signature, e.g. Ref(cls, "onCreate", "(Landroid/os/Bundle;)V").
func Ref(class, name, sig string) MethodRef {
	return MethodRef(class + "->" + name + sig)
}

package staticanalysis

import (
	"fmt"
	"strings"

	"repro/internal/dexir"
)

// Capability enumerates the tapjacking capabilities the detectors find.
type Capability int

// Capabilities.
const (
	// CapDrawAndDestroy: WindowManager.addView and removeView both
	// reachable from one component in an app holding SYSTEM_ALERT_WINDOW
	// (the §III overlay attack's static signature).
	CapDrawAndDestroy Capability = iota
	// CapToastReplace: Toast.setView plus a re-enqueued Toast.show
	// reachable from a repeating callback (the §IV toast attack).
	CapToastReplace
	// CapA11yTiming: an accessibility service whose event handler reaches
	// the overlay calls (the §V attack-trigger wiring).
	CapA11yTiming
)

// String names the capability for reports.
func (c Capability) String() string {
	switch c {
	case CapDrawAndDestroy:
		return "draw-and-destroy-overlay"
	case CapToastReplace:
		return "toast-replacement"
	case CapA11yTiming:
		return "a11y-assisted-timing"
	}
	return fmt.Sprintf("capability(%d)", int(c))
}

// SinkEvidence ties one sink call site to the entry-point path that
// reaches it — the per-detector evidence trace of a vetting verdict.
type SinkEvidence struct {
	SinkCall
	// Path is the entry-point→containing-method discovery chain.
	Path []dexir.MethodRef
	// ViaCallback and ViaRepeating describe the path context.
	ViaCallback  bool
	ViaRepeating bool
}

// String renders the trace compactly: entry → … → method ⇒ sink.
func (e SinkEvidence) String() string {
	var sb strings.Builder
	for i, p := range e.Path {
		if i > 0 {
			sb.WriteString(" → ")
		}
		sb.WriteString(p.Class() + "." + p.Name())
	}
	fmt.Fprintf(&sb, " ⇒ %s", e.Sink.Name())
	var flags []string
	if e.Reflective {
		flags = append(flags, "reflective")
	}
	if e.InLoop {
		flags = append(flags, "loop")
	}
	if e.ViaCallback {
		flags = append(flags, "handler")
	}
	if e.ViaRepeating {
		flags = append(flags, "repeating")
	}
	if e.Guarded {
		flags = append(flags, "guarded")
	}
	if len(flags) > 0 {
		fmt.Fprintf(&sb, " [%s]", strings.Join(flags, ","))
	}
	return sb.String()
}

// Finding is one positive detector result for one component.
type Finding struct {
	Detector   string
	Capability Capability
	Component  string
	Kind       dexir.ComponentKind
	// Evidence holds one trace per contributing sink call.
	Evidence []SinkEvidence
	// LoopContext: some contributing sink sits in a loop or repeating
	// callback; HandlerContext: some trace crosses a handler edge.
	LoopContext    bool
	HandlerContext bool
}

// Detector is a pluggable capability detector.
type Detector interface {
	Name() string
	Detect(app *dexir.App, g *CallGraph) []Finding
}

// componentSinks gathers evidence for every reachable sink call of the
// wanted kinds from one component's entry points.
func componentSinks(g *CallGraph, c dexir.Component, wanted map[dexir.MethodRef]bool) []SinkEvidence {
	reach := g.ReachableFrom(c.EntryPoints)
	var out []SinkEvidence
	for ci := range g.app.Classes {
		for mi := range g.app.Classes[ci].Methods {
			ref := g.app.Classes[ci].Methods[mi].Ref
			if !reach.Contains(ref) {
				continue
			}
			for _, s := range g.Sinks(ref) {
				if !wanted[s.Sink] {
					continue
				}
				out = append(out, SinkEvidence{
					SinkCall:     s,
					Path:         reach.Path(ref),
					ViaCallback:  reach.ViaCallback(ref),
					ViaRepeating: reach.ViaRepeating(ref),
				})
			}
		}
	}
	return out
}

// DrawAndDestroyDetector finds the §III overlay-attack capability.
type DrawAndDestroyDetector struct{}

// Name implements Detector.
func (DrawAndDestroyDetector) Name() string { return "draw-and-destroy" }

// Detect implements Detector.
func (DrawAndDestroyDetector) Detect(app *dexir.App, g *CallGraph) []Finding {
	if !app.HasPermission(dexir.PermSystemAlertWindow) {
		return nil
	}
	var out []Finding
	for _, c := range app.Components {
		ev := componentSinks(g, c, map[dexir.MethodRef]bool{
			dexir.RefAddView:    true,
			dexir.RefRemoveView: true,
		})
		var add, rm bool
		f := Finding{Detector: "draw-and-destroy", Capability: CapDrawAndDestroy, Component: c.Name, Kind: c.Kind}
		for _, e := range ev {
			switch e.Sink {
			case dexir.RefAddView:
				add = true
			case dexir.RefRemoveView:
				rm = true
			}
			if e.InLoop || e.ViaRepeating || g.RegistersSelf(e.In) {
				f.LoopContext = true
			}
			if e.ViaCallback {
				f.HandlerContext = true
			}
		}
		if add && rm {
			f.Evidence = ev
			out = append(out, f)
		}
	}
	return out
}

// ToastReplaceDetector finds the §IV toast-attack capability.
type ToastReplaceDetector struct{}

// Name implements Detector.
func (ToastReplaceDetector) Name() string { return "toast-replace" }

// Detect implements Detector.
func (ToastReplaceDetector) Detect(app *dexir.App, g *CallGraph) []Finding {
	var out []Finding
	for _, c := range app.Components {
		ev := componentSinks(g, c, map[dexir.MethodRef]bool{
			dexir.RefToastSetView: true,
			dexir.RefToastShow:    true,
		})
		var setView bool
		var reShow []SinkEvidence
		for _, e := range ev {
			switch e.Sink {
			case dexir.RefToastSetView:
				setView = true
			case dexir.RefToastShow:
				// The re-enqueue signature: show() issued from a method
				// that re-registers itself, or reached via a repeating
				// scheduler.
				if g.RegistersSelf(e.In) || e.ViaRepeating {
					reShow = append(reShow, e)
				}
			}
		}
		if setView && len(reShow) > 0 {
			out = append(out, Finding{
				Detector:       "toast-replace",
				Capability:     CapToastReplace,
				Component:      c.Name,
				Kind:           c.Kind,
				Evidence:       ev,
				LoopContext:    true,
				HandlerContext: true,
			})
		}
	}
	return out
}

// A11yTimingDetector finds accessibility services whose event handler
// reaches the overlay sinks — the §V event-driven attack trigger.
type A11yTimingDetector struct{}

// Name implements Detector.
func (A11yTimingDetector) Name() string { return "a11y-timing" }

// Detect implements Detector.
func (A11yTimingDetector) Detect(app *dexir.App, g *CallGraph) []Finding {
	var out []Finding
	for _, c := range app.Components {
		if c.Kind != dexir.AccessibilityService {
			continue
		}
		ev := componentSinks(g, c, map[dexir.MethodRef]bool{
			dexir.RefAddView:    true,
			dexir.RefRemoveView: true,
		})
		if len(ev) == 0 {
			continue
		}
		f := Finding{Detector: "a11y-timing", Capability: CapA11yTiming, Component: c.Name, Kind: c.Kind, Evidence: ev}
		for _, e := range ev {
			if e.InLoop || e.ViaRepeating {
				f.LoopContext = true
			}
			if e.ViaCallback {
				f.HandlerContext = true
			}
		}
		out = append(out, f)
	}
	return out
}

// DefaultDetectors returns the three paper-derived detectors.
func DefaultDetectors() []Detector {
	return []Detector{DrawAndDestroyDetector{}, ToastReplaceDetector{}, A11yTimingDetector{}}
}

// Result is the per-app analysis outcome.
type Result struct {
	// DrawAndDestroy, ToastReplace, A11yTiming report detector verdicts.
	DrawAndDestroy bool
	ToastReplace   bool
	A11yTiming     bool
	// SetViewReachable is the §VI-C2 "customized toast" feature: a
	// Toast.setView call reachable from some component (capability or
	// not).
	SetViewReachable bool
	// Tier records the precision tier the analysis ran at.
	Tier Tier
	// SinkSites counts the evidence call sites across all findings;
	// GuardedSinkSites and ReflectiveSinkSites break them down by the
	// SinkCall flags, so a tier-to-tier verdict delta is explainable
	// from the evidence mix (guarded sites vanish at Tier1+, reflective
	// sites appear at Tier2).
	SinkSites           int
	GuardedSinkSites    int
	ReflectiveSinkSites int
	// Findings carries the evidence traces behind the verdicts.
	Findings []Finding
}

// Analyzer runs a detector suite over apps at one precision tier.
type Analyzer struct {
	detectors []Detector
	tier      Tier
}

// NewAnalyzerTier builds an analyzer running at the given precision tier;
// with no detectors it uses the default suite.
func NewAnalyzerTier(tier Tier, detectors ...Detector) *Analyzer {
	if len(detectors) == 0 {
		detectors = DefaultDetectors()
	}
	return &Analyzer{detectors: detectors, tier: tier}
}

// Tier reports the analyzer's precision tier.
func (a *Analyzer) Tier() Tier { return a.tier }

// Analyze builds the call graph at the analyzer's tier and runs every
// detector.
func (a *Analyzer) Analyze(app *dexir.App) Result {
	g := BuildCallGraphTier(app, a.tier)
	res := Result{Tier: a.tier}
	for _, d := range a.detectors {
		for _, f := range d.Detect(app, g) {
			res.Findings = append(res.Findings, f)
			switch f.Capability {
			case CapDrawAndDestroy:
				res.DrawAndDestroy = true
			case CapToastReplace:
				res.ToastReplace = true
			case CapA11yTiming:
				res.A11yTiming = true
			}
			for _, e := range f.Evidence {
				res.SinkSites++
				if e.Guarded {
					res.GuardedSinkSites++
				}
				if e.Reflective {
					res.ReflectiveSinkSites++
				}
			}
		}
	}
	// Feature-level customized-toast reachability (independent of the
	// capability verdict).
	for _, c := range app.Components {
		if len(componentSinks(g, c, map[dexir.MethodRef]bool{dexir.RefToastSetView: true})) > 0 {
			res.SetViewReachable = true
			break
		}
	}
	return res
}

// AnalyzeTier runs the default detector suite over one app at the given
// precision tier.
func AnalyzeTier(app *dexir.App, tier Tier) Result {
	return NewAnalyzerTier(tier).Analyze(app)
}

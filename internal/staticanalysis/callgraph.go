// Package staticanalysis is the FlowDroid-style half of the Section VI-C2
// market study and the static half of the Section VII defense: it builds a
// call graph over a dexir.App, computes interprocedural reachability from
// manifest-declared component entry points, and runs pluggable capability
// detectors (draw-and-destroy overlay, toast replacement, accessibility-
// assisted timing) that return per-component evidence traces.
//
// The pass runs at a selectable precision Tier. Tier0 reproduces the
// paper's baseline configuration exactly: path-insensitive (an instruction
// behind an always-false guard is still "reachable", the deliberate
// over-approximation of basic call-graph analyzers) with reflection
// resolved only from the two const-strings immediately preceding the call
// — FlowDroid's easy case. Tier1 prunes statically dead always-false
// branches before reachability. Tier2 adds interprocedural constant
// propagation (constprop.go): whole-program boolean flags decide GuardFlag
// branches, and string registers — const loads, moves, concatenations and
// constant-returning helper calls — resolve reflective sinks whose names
// never appear contiguously. The `precision` experiment measures what each
// step buys against the generator's ground truth.
package staticanalysis

import (
	"repro/internal/dexir"
)

// sinkRefs are the framework methods the detectors care about.
var sinkRefs = map[dexir.MethodRef]bool{
	dexir.RefAddView:      true,
	dexir.RefRemoveView:   true,
	dexir.RefToastSetView: true,
	dexir.RefToastShow:    true,
}

// SinkCall is one call site of a framework sink inside an app method.
type SinkCall struct {
	// Sink is the framework method invoked.
	Sink dexir.MethodRef
	// In is the app method containing the call site.
	In dexir.MethodRef
	// InLoop marks an intra-method loop context.
	InLoop bool
	// Guarded marks a call site behind an always-false branch (dead at
	// runtime; the analysis reaches it anyway).
	Guarded bool
	// Reflective marks a call resolved from const-strings rather than a
	// direct method reference.
	Reflective bool
}

// edge is one call-graph edge to an app-defined method.
type edge struct {
	to dexir.MethodRef
	// callback marks an edge induced by a scheduler/listener registration
	// rather than a direct invoke.
	callback bool
	// repeating marks a registration on a self-repeating scheduler
	// (Timer.scheduleAtFixedRate).
	repeating bool
}

// node is the per-method call-graph record.
type node struct {
	callees []edge
	sinks   []SinkCall
	// registersSelf: the method re-enqueues itself on a scheduler — the
	// re-enqueue idiom of the draw-and-destroy and toast loops.
	registersSelf bool
}

// CallGraph is the whole-app call graph, built at one analysis tier.
type CallGraph struct {
	app   *dexir.App
	nodes map[dexir.MethodRef]*node
	tier  Tier

	// Tier2 state: the whole-program flag-constant table and the memoized
	// constant-return summaries (see constprop.go).
	flags     map[string]bool
	retMemo   map[dexir.MethodRef]constRet
	retActive map[dexir.MethodRef]bool
}

// BuildCallGraphTier constructs the call graph of one app at the given
// precision tier. At Tier0, the paper baseline, direct invokes of app
// methods become direct edges; callback registrations become callback
// edges; resolvable reflective invokes of framework sinks become sink
// calls flagged Reflective; unresolvable reflective invokes stay opaque.
// Tier1 drops instructions behind always-false guards before any
// edge or sink is extracted; Tier2 additionally resolves flag guards from
// the whole-program constant table and reflective targets from register
// dataflow.
func BuildCallGraphTier(app *dexir.App, tier Tier) *CallGraph {
	g := &CallGraph{app: app, nodes: make(map[dexir.MethodRef]*node), tier: tier}
	if tier >= Tier2 {
		g.flags = buildFlagTable(app)
		g.retMemo = make(map[dexir.MethodRef]constRet)
		g.retActive = make(map[dexir.MethodRef]bool)
	}
	for ci := range app.Classes {
		for mi := range app.Classes[ci].Methods {
			m := &app.Classes[ci].Methods[mi]
			g.nodes[m.Ref] = g.buildNode(app, m)
		}
	}
	return g
}

// Tier reports the precision tier the graph was built at.
func (g *CallGraph) Tier() Tier { return g.tier }

func (g *CallGraph) buildNode(app *dexir.App, m *dexir.Method) *node {
	n := &node{}
	// Rolling window of the last two const-strings, feeding reflective
	// resolution the way FlowDroid's easy case would.
	var c1, c2 string // c1 = older (class), c2 = newer (method)
	// Tier2 tracks string registers alongside the window.
	var regs map[dexir.Reg]string
	if g.tier >= Tier2 {
		regs = make(map[dexir.Reg]string, 8)
	}
	for _, in := range m.Body {
		if g.pruned(in) {
			continue
		}
		switch in.Op {
		case dexir.OpConstString:
			c1, c2 = c2, in.Str
		case dexir.OpInvoke:
			if sinkRefs[in.Target] {
				n.sinks = append(n.sinks, SinkCall{
					Sink: in.Target, In: m.Ref,
					InLoop:  in.InLoop,
					Guarded: in.Guard != dexir.GuardNone,
				})
			} else if _, ok := app.Method(in.Target); ok {
				n.callees = append(n.callees, edge{to: in.Target})
			}
		case dexir.OpRegisterCallback:
			if _, ok := app.Method(in.Callback); ok {
				n.callees = append(n.callees, edge{
					to:        in.Callback,
					callback:  true,
					repeating: in.Target == dexir.RefTimerScheduleRate,
				})
				if in.Callback == m.Ref {
					n.registersSelf = true
				}
			}
		case dexir.OpReflectInvoke:
			class, method, known := c1, c2, true
			if regs != nil && (in.ClassReg != 0 || in.MethodReg != 0) {
				// Register-carried names: resolvable only at Tier2, and
				// only when both registers hold known constants.
				class, method, known = regPair(regs, in.ClassReg, in.MethodReg)
			}
			if known {
				if ref, ok := dexir.ResolveReflective(class, method); ok && sinkRefs[ref] {
					n.sinks = append(n.sinks, SinkCall{
						Sink: ref, In: m.Ref,
						InLoop:     in.InLoop,
						Guarded:    in.Guard != dexir.GuardNone,
						Reflective: true,
					})
				}
			}
		}
		if regs != nil {
			g.stepRegs(regs, in)
		}
	}
	return n
}

// RegistersSelf reports whether the method re-enqueues itself on a
// scheduler (the repeating-callback idiom).
func (g *CallGraph) RegistersSelf(ref dexir.MethodRef) bool {
	n, ok := g.nodes[ref]
	return ok && n.registersSelf
}

// Sinks returns the sink call sites inside one method.
func (g *CallGraph) Sinks(ref dexir.MethodRef) []SinkCall {
	if n, ok := g.nodes[ref]; ok {
		return n.sinks
	}
	return nil
}

// reachInfo records how a method was first reached during BFS.
type reachInfo struct {
	parent    dexir.MethodRef
	hasParent bool
	// viaCallback: some edge on the discovery path was a callback edge
	// (handler/scheduler context).
	viaCallback bool
	// viaRepeating: some edge on the path was a repeating registration.
	viaRepeating bool
}

// ReachSet is the result of a reachability query.
type ReachSet struct {
	info map[dexir.MethodRef]reachInfo
}

// Contains reports whether the method is reachable.
func (r *ReachSet) Contains(ref dexir.MethodRef) bool {
	_, ok := r.info[ref]
	return ok
}

// ViaCallback reports whether the method's discovery path crossed a
// callback (handler/scheduler/listener) edge.
func (r *ReachSet) ViaCallback(ref dexir.MethodRef) bool {
	return r.info[ref].viaCallback
}

// ViaRepeating reports whether the discovery path crossed a repeating
// scheduler registration.
func (r *ReachSet) ViaRepeating(ref dexir.MethodRef) bool {
	return r.info[ref].viaRepeating
}

// Path reconstructs the entry-point→method discovery path (inclusive).
func (r *ReachSet) Path(ref dexir.MethodRef) []dexir.MethodRef {
	if _, ok := r.info[ref]; !ok {
		return nil
	}
	var rev []dexir.MethodRef
	cur := ref
	for {
		rev = append(rev, cur)
		in := r.info[cur]
		if !in.hasParent {
			break
		}
		cur = in.parent
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// ReachableFrom computes the methods reachable from the given entry
// points. BFS over entries in order, callees in body order, so traversal
// (and therefore evidence paths) is deterministic.
func (g *CallGraph) ReachableFrom(entries []dexir.MethodRef) *ReachSet {
	r := &ReachSet{info: make(map[dexir.MethodRef]reachInfo)}
	var queue []dexir.MethodRef
	for _, e := range entries {
		if _, ok := g.nodes[e]; !ok {
			continue
		}
		if _, seen := r.info[e]; seen {
			continue
		}
		r.info[e] = reachInfo{}
		queue = append(queue, e)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		curInfo := r.info[cur]
		for _, e := range g.nodes[cur].callees {
			if _, seen := r.info[e.to]; seen {
				continue
			}
			r.info[e.to] = reachInfo{
				parent:       cur,
				hasParent:    true,
				viaCallback:  curInfo.viaCallback || e.callback,
				viaRepeating: curInfo.viaRepeating || e.repeating,
			}
			queue = append(queue, e.to)
		}
	}
	return r
}

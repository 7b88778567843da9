// Package simlint implements a vet-style determinism and robustness pass
// for the simulation core. Inside internal/ packages, wall-clock reads
// (time.Now, time.Since) and the global math/rand generators are
// forbidden, because a single stray call makes week-long simulated runs
// unreproducible. Virtual time must come from internal/simclock and
// randomness from internal/simrand; those two packages are the exempt
// deterministic wrappers.
//
// Two robustness rules cover production (non-test) code only: time.Sleep
// blocks the OS thread instead of advancing virtual time, and a bare
// panic aborts an entire simulated run where an error return plus the
// invariant monitor (internal/invariant, which is exempt) would let the
// run complete and report.
//
// A third production-only rule guards the crash-safety layer: inside
// files implementing journals or checkpoints (base filename containing
// "journal" or "checkpoint"), os.WriteFile and ioutil.WriteFile are
// rejected — they neither append nor fsync, so a crash can truncate the
// very state the file exists to preserve. Crash-safe state must go
// through a fsynced append.
//
// Two concurrency rules back the parallel trial scheduler's determinism
// contract. The bare go keyword is forbidden everywhere in internal/,
// tests included, except inside internal/experiment/sched — the managed
// worker pool all concurrent work must go through. And a trial closure
// passed to NewTrial may not capture a simrand source that is also drawn
// outside the closure: whichever worker runs first would advance the
// shared stream, making results depend on scheduling order.
//
// A map-iteration rule rounds out the determinism set: ranging over a
// map while appending to a slice or writing output emits the aggregate
// in Go's per-run-randomized iteration order, the kind of bug that only
// shows up as an occasional golden-file diff. The collect-keys-then-sort
// idiom — appending inside the loop and sorting the destination after it
// — is recognized and allowed.
//
// Serving packages (ServingPackages — currently internal/vetd, the
// scan-before-install vetting service, internal/vetring, the verdict
// ring router, internal/sentry, the streaming detection service,
// internal/sentring, the detection ingest router, internal/ring, the
// serving core both routers share, and internal/load, the load tools'
// retry loop, fleet replay and process harness) are exempt from the
// determinism rules only: they run on the wall clock by design,
// measuring real latencies, enforcing real deadlines and owning their
// own goroutines. The robustness rules
// and the math-rand ban still bind them, and the exemption is matched
// on the package clause, never the directory.
//
// A naked-http-client rule covers every production file that speaks
// HTTP: http.Get/Post/PostForm/Head ride the shared default client,
// and an http.Client composite literal without a Timeout field hangs
// forever on a stuck peer — in a ring where peers are SIGKILLed on
// purpose, an unbounded client turns one dead node into a wedged
// caller. Serving packages are exempt (internal/ring's fault-injecting
// transport builds its peer clients deliberately, with explicit
// timeouts the lint pass cannot type-check), tests are not covered,
// and command binaries (package main) get this rule and no other:
// a CLI legitimately reads the wall clock, but its HTTP calls must
// still carry deadlines.
//
// The pass is built on the standard library's go/ast so it carries no
// dependency beyond the toolchain; cmd/simlint is the CLI driver and the
// package API lets tests run the pass in-process.
package simlint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Rule identifiers, one per forbidden construct.
const (
	RuleTimeNow   = "time-now"
	RuleTimeSince = "time-since"
	RuleMathRand  = "math-rand"
	RuleTimeSleep = "time-sleep"
	RulePanic     = "bare-panic"
	// RuleUnsyncedWrite guards the crash-safety layer: journal and
	// checkpoint files exist to survive a kill at any instant, and
	// os.WriteFile neither appends nor fsyncs — a crash mid-call can leave
	// the file truncated or the data in the page cache only.
	RuleUnsyncedWrite = "unsynced-write"
	// RuleBareGo forbids the bare go keyword everywhere in internal/
	// (tests included): an unmanaged goroutine escapes the deterministic
	// trial scheduler, so its side effects land in seed-dependent order.
	// internal/experiment/sched is the one exempt package — it is the
	// managed pool everything else must go through.
	RuleBareGo = "bare-go"
	// RuleSharedSource catches the classic parallel-determinism bug: a
	// trial closure capturing a *simrand.Source that is also drawn from
	// outside the closure. Whichever worker runs the trial first advances
	// the shared stream, so results depend on scheduling. Per-trial
	// streams must be derived up front in Trials and the closure must
	// capture only its own stream.
	RuleSharedSource = "shared-source-capture"
	// RuleMapRangeOrder flags ranging over a map while appending to a
	// slice or writing output in the loop body: Go randomizes map
	// iteration order per run, so the aggregate comes out shuffled — a
	// report that diffs against its golden only sometimes, a checkpoint
	// that hashes differently on resume. The collect-keys-then-sort idiom
	// is exempt: an append whose destination is passed to a sort.* call
	// after the loop is order-insensitive by construction.
	RuleMapRangeOrder = "map-range-order"
	// RuleNakedHTTP flags HTTP calls with no deadline: the http.Get/Post
	// convenience functions use the shared zero-timeout default client,
	// and an http.Client literal without a Timeout field waits forever on
	// a peer that stops answering — precisely the failure the verdict
	// ring injects on purpose. Production code must build clients with an
	// explicit Timeout (and, on ring paths, the fault-aware transport).
	RuleNakedHTTP = "naked-http-client"
)

// goExemptPackages may spawn goroutines: the trial scheduler is the
// designated concurrency layer, and everything else submits work to it.
var goExemptPackages = map[string]bool{
	"sched": true,
}

// ServingPackages is the explicit allowlist of wall-clock serving
// packages: long-running network services that answer real traffic on
// real time, outside the simulation clock. They are exempt from the
// determinism rules only — time-now, time-since, time-sleep, bare-go and
// shared-source-capture — because a serving path legitimately measures
// wall-clock latency, enforces real deadlines and runs its own goroutine
// pool. The robustness rules (bare-panic, unsynced-write) and the
// math-rand ban still apply: a server that panics drops every in-flight
// request, and any randomness it needs must stay seeded through
// internal/simrand so served verdicts remain reproducible.
//
// The exemption is package-scoped (matched on the file's package clause,
// not its directory), so a simulation file cannot opt out by moving next
// to serving code.
var ServingPackages = map[string]bool{
	"vetd":    true,
	"vetring": true,
	// sentry serves the streaming fleet-scale detector: real HTTP ingest
	// on real time, but every detection decision is a pure function of
	// the device's own record stream (timestamps on the wire are
	// virtual), so the exemption covers only the serving shell.
	"sentry": true,
	// sentring routes that detector's ingest across a ring of sentryd
	// peers: health probes, retry backoff and circuit-breaker cooldowns
	// are wall-clock by design, while batch placement stays a pure
	// function of the device ID.
	"sentring": true,
	// ring is the serving core both routers share: it runs probes,
	// retry backoff and breaker cooldowns on the wall clock.
	"ring": true,
	// load drives real HTTP clients and real router and peer processes
	// on real time.
	"load": true,
}

// panicExemptPackages may keep bare panics: the invariant monitor is the
// designated assertion layer, and its own internals are allowed to fail
// hard while everything else reports through it.
var panicExemptPackages = map[string]bool{
	"invariant": true,
}

// ExemptPackages are the deterministic wrappers themselves: they are the
// only internal/ packages allowed to touch the wall clock or seed global
// randomness.
var ExemptPackages = map[string]bool{
	"simrand":  true,
	"simclock": true,
}

// Diagnostic is one lint finding.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Msg, d.Rule)
}

// LintFile runs the determinism pass over one parsed file and returns its
// findings in source order.
func LintFile(fset *token.FileSet, f *ast.File) []Diagnostic {
	var diags []Diagnostic
	report := func(pos token.Pos, rule, msg string) {
		diags = append(diags, Diagnostic{Pos: fset.Position(pos), Rule: rule, Msg: msg})
	}

	filename := fset.Position(f.Pos()).Filename
	isTest := strings.HasSuffix(filename, "_test.go")

	// Command binaries (package main) live on the wall clock by
	// definition — flags, signal loops, progress output — so the
	// simulation rules do not apply. Their HTTP calls must still carry
	// deadlines: naked-http-client is the one rule they keep.
	if f.Name.Name == "main" {
		if !isTest {
			lintNakedHTTP(f, report)
		}
		sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos.Offset < diags[j].Pos.Offset })
		return diags
	}

	// Resolve which local names refer to the time package (handles
	// aliased imports) and whether time is dot-imported; flag math/rand
	// imports outright — any use of the package is a determinism leak.
	timeNames := map[string]bool{}
	writeFileNames := map[string]bool{} // local names of os / io/ioutil
	timeDot := false
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		switch path {
		case "time":
			switch {
			case imp.Name == nil:
				timeNames["time"] = true
			case imp.Name.Name == ".":
				timeDot = true
			case imp.Name.Name != "_":
				timeNames[imp.Name.Name] = true
			}
		case "os", "io/ioutil":
			switch {
			case imp.Name == nil:
				writeFileNames[filepath.Base(path)] = true
			case imp.Name.Name != "." && imp.Name.Name != "_":
				writeFileNames[imp.Name.Name] = true
			}
		case "math/rand", "math/rand/v2":
			report(imp.Pos(), RuleMathRand,
				fmt.Sprintf("import of %s in a simulation package; use internal/simrand", path))
		}
	}

	// The robustness rules (time.Sleep, bare panic) apply to production
	// simulation code only: tests may sleep or panic to probe behaviour,
	// and the invariant monitor is the designated assertion layer.
	panicExempt := isTest || panicExemptPackages[f.Name.Name]
	// Serving exemption, scoped by package clause; an external test
	// package (pkg_test) inherits its subject package's serving status.
	serving := ServingPackages[strings.TrimSuffix(f.Name.Name, "_test")]
	// The unsynced-write rule applies only to production files implementing
	// the crash-safe persistence layer, identified by filename.
	base := filepath.Base(filename)
	crashSafeFile := !isTest && (strings.Contains(base, "journal") || strings.Contains(base, "checkpoint"))

	forbidden := func(sel string) (rule, msg string, ok bool) {
		if serving {
			// Wall-clock serving packages are exempt from every time rule.
			return "", "", false
		}
		switch sel {
		case "Now":
			return RuleTimeNow, "call to time.Now reads the wall clock; use the simulation clock (internal/simclock)", true
		case "Since":
			return RuleTimeSince, "time.Since reads the wall clock via an implicit time.Now; compute durations from simulation timestamps", true
		case "Sleep":
			if isTest {
				return "", "", false
			}
			return RuleTimeSleep, "time.Sleep blocks the OS thread, not virtual time; schedule work on the simulation clock (internal/simclock)", true
		}
		return "", "", false
	}

	goExempt := goExemptPackages[f.Name.Name] || serving

	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if !goExempt {
				report(n.Pos(), RuleBareGo,
					"bare go statement spawns an unmanaged goroutine; run concurrent work through internal/experiment/sched")
			}
		case *ast.SelectorExpr:
			// Flag both calls and method values (f := time.Now).
			id, ok := n.X.(*ast.Ident)
			if !ok {
				return true
			}
			if crashSafeFile && writeFileNames[id.Name] && n.Sel.Name == "WriteFile" {
				report(n.Sel.Pos(), RuleUnsyncedWrite,
					"os.WriteFile in a journal/checkpoint file neither appends nor fsyncs; crash-safe state must go through a fsynced append (O_APPEND + File.Sync)")
			}
			if !timeNames[id.Name] {
				return true
			}
			if rule, msg, ok := forbidden(n.Sel.Name); ok {
				report(n.Sel.Pos(), rule, msg)
			}
		case *ast.CallExpr:
			// Bare panic crashes a whole simulated run; production code
			// must return errors and let the invariant monitor record
			// breaches instead.
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "panic" && !panicExempt {
				report(id.Pos(), RulePanic,
					"bare panic aborts the whole simulated run; return an error and record breaches via internal/invariant")
			}
			// Dot-imported time: Now()/Since()/Sleep() appear as bare
			// idents.
			if !timeDot {
				return true
			}
			if id, ok := n.Fun.(*ast.Ident); ok {
				if rule, msg, ok := forbidden(id.Name); ok {
					report(id.Pos(), rule, msg)
				}
			}
		}
		return true
	})
	if !goExempt {
		lintSharedSources(f, report)
	}
	if !serving {
		lintMapRangeOrder(f, report)
	}
	if !isTest && !serving {
		lintNakedHTTP(f, report)
	}

	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos.Offset < diags[j].Pos.Offset })
	return diags
}

// isSourceExpr reports whether e constructs or derives a simrand stream:
// simrand.New(...), x.Derive(...), or x.DeriveIndexed(...). The pass has
// no type information, so the Derive method names are treated as
// distinctive — they exist nowhere else in the tree.
func isSourceExpr(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Derive", "DeriveIndexed":
		return true
	case "New":
		id, ok := sel.X.(*ast.Ident)
		return ok && id.Name == "simrand"
	}
	return false
}

// isNewTrialFun reports whether fun names the experiment trial
// constructor, unwrapping a generic instantiation (NewTrial[T]) and a
// package qualifier (experiment.NewTrial).
func isNewTrialFun(fun ast.Expr) bool {
	switch fn := fun.(type) {
	case *ast.IndexExpr:
		return isNewTrialFun(fn.X)
	case *ast.IndexListExpr:
		return isNewTrialFun(fn.X)
	case *ast.Ident:
		return fn.Name == "NewTrial"
	case *ast.SelectorExpr:
		return fn.Sel.Name == "NewTrial"
	}
	return false
}

// lintSharedSources implements RuleSharedSource: for every variable
// assigned from a simrand constructor or Derive call, a use inside a
// NewTrial closure is only legal if the variable has no other use outside
// that closure (its defining assignment aside). A variable drawn from both
// inside and outside trial closures is a scheduling-order dependence.
func lintSharedSources(f *ast.File, report func(pos token.Pos, rule, msg string)) {
	// Pass 1: source variables and the positions of assignment targets
	// (excluded from the use scan below).
	sourceVars := map[string]bool{}
	assignPos := map[token.Pos]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				assignPos[id.Pos()] = true
			}
		}
		if len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if !isSourceExpr(rhs) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
				sourceVars[id.Name] = true
			}
		}
		return true
	})
	if len(sourceVars) == 0 {
		return
	}

	// Pass 2: the spans of closure literals passed to NewTrial, and the
	// positions of selector field/method names (x.Derive's "Derive" is an
	// ident too, but never a variable use).
	type span struct{ lo, hi token.Pos }
	var closures []span
	selPos := map[token.Pos]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			selPos[n.Sel.Pos()] = true
		case *ast.CallExpr:
			if !isNewTrialFun(n.Fun) {
				return true
			}
			for _, arg := range n.Args {
				if fl, ok := arg.(*ast.FuncLit); ok {
					closures = append(closures, span{fl.Pos(), fl.End()})
				}
			}
		}
		return true
	})
	if len(closures) == 0 {
		return
	}

	// Pass 3: classify every remaining use of each source variable.
	type uses struct {
		firstInside token.Pos
		inside      bool
		outside     bool
	}
	byVar := map[string]*uses{}
	ast.Inspect(f, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || !sourceVars[id.Name] || assignPos[id.Pos()] || selPos[id.Pos()] {
			return true
		}
		u := byVar[id.Name]
		if u == nil {
			u = &uses{}
			byVar[id.Name] = u
		}
		in := false
		for _, c := range closures {
			if id.Pos() >= c.lo && id.Pos() < c.hi {
				in = true
				break
			}
		}
		if in {
			if !u.inside {
				u.firstInside = id.Pos()
			}
			u.inside = true
		} else {
			u.outside = true
		}
		return true
	})

	var names []string
	for name, u := range byVar {
		if u.inside && u.outside {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		report(byVar[name].firstInside, RuleSharedSource,
			fmt.Sprintf("trial closure captures simrand source %q that is also drawn outside the closure; derive a per-trial stream in Trials and capture only that", name))
	}
}

// mapRangeWriters are the call names treated as order-sensitive output
// when invoked inside a map range body: stream writers and the fmt print
// family. Anything they emit lands in map-iteration order.
var mapRangeWriters = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// lintMapRangeOrder implements RuleMapRangeOrder. The pass has no type
// information, so map values are tracked by name: variables made with
// make(map...), assigned a map composite literal, declared with a map
// type (parameters and results included), plus struct fields of map type
// declared in the same file for ranges of the form `range x.field`.
// Inside a range over such a value, two sinks are order-sensitive: an
// append (unless its destination is sorted after the loop — the
// collect-keys-then-sort idiom) and a write call from mapRangeWriters.
func lintMapRangeOrder(f *ast.File, report func(pos token.Pos, rule, msg string)) {
	isMapExpr := func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.CallExpr:
			if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" && len(e.Args) > 0 {
				_, isMap := e.Args[0].(*ast.MapType)
				return isMap
			}
		case *ast.CompositeLit:
			_, isMap := e.Type.(*ast.MapType)
			return isMap
		}
		return false
	}
	addNames := func(names []*ast.Ident, set map[string]bool) {
		for _, id := range names {
			if id.Name != "_" {
				set[id.Name] = true
			}
		}
	}

	// Pass 1: names known to hold maps, and struct fields of map type.
	mapVars := map[string]bool{}
	mapFields := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				if isMapExpr(rhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
						mapVars[id.Name] = true
					}
				}
			}
		case *ast.ValueSpec:
			if _, ok := n.Type.(*ast.MapType); ok {
				addNames(n.Names, mapVars)
				return true
			}
			for i, v := range n.Values {
				if isMapExpr(v) && i < len(n.Names) {
					mapVars[n.Names[i].Name] = true
				}
			}
		case *ast.FuncType:
			for _, fl := range []*ast.FieldList{n.Params, n.Results} {
				if fl == nil {
					continue
				}
				for _, fd := range fl.List {
					if _, ok := fd.Type.(*ast.MapType); ok {
						addNames(fd.Names, mapVars)
					}
				}
			}
		case *ast.StructType:
			for _, fd := range n.Fields.List {
				if _, ok := fd.Type.(*ast.MapType); ok {
					addNames(fd.Names, mapFields)
				}
			}
		}
		return true
	})
	if len(mapVars) == 0 && len(mapFields) == 0 {
		return
	}

	// Pass 2: sort.* calls and every ident mentioned in their arguments.
	// An append destination that reaches one of these after its loop is
	// order-insensitive.
	type sortCall struct {
		pos   token.Pos
		names map[string]bool
	}
	var sortCalls []sortCall
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "sort" {
			return true
		}
		names := map[string]bool{}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					names[id.Name] = true
				}
				return true
			})
		}
		sortCalls = append(sortCalls, sortCall{call.Pos(), names})
		return true
	})
	sortedAfter := func(name string, end token.Pos) bool {
		for _, sc := range sortCalls {
			if sc.pos >= end && sc.names[name] {
				return true
			}
		}
		return false
	}

	// Pass 3: scan each range over a known map for order-sensitive sinks.
	ast.Inspect(f, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		var subject string
		switch x := rng.X.(type) {
		case *ast.Ident:
			if mapVars[x.Name] {
				subject = x.Name
			}
		case *ast.SelectorExpr:
			if mapFields[x.Sel.Name] {
				subject = x.Sel.Name
			}
		}
		if subject == "" {
			return true
		}
		var hazardPos token.Pos
		var hazard string
		note := func(pos token.Pos, what string) {
			if hazardPos == token.NoPos {
				hazardPos, hazard = pos, what
			}
		}
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.AssignStmt:
				if len(m.Lhs) != len(m.Rhs) {
					return true
				}
				for i, rhs := range m.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok {
						continue
					}
					if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
						continue
					}
					if id, ok := m.Lhs[i].(*ast.Ident); ok && sortedAfter(id.Name, rng.End()) {
						continue
					}
					note(call.Pos(), "appends in map-iteration order")
				}
			case *ast.CallExpr:
				if sel, ok := m.Fun.(*ast.SelectorExpr); ok && mapRangeWriters[sel.Sel.Name] {
					note(sel.Sel.Pos(), fmt.Sprintf("writes output (%s) in map-iteration order", sel.Sel.Name))
				}
			}
			return true
		})
		if hazardPos != token.NoPos {
			report(hazardPos, RuleMapRangeOrder,
				fmt.Sprintf("range over map %q %s, which Go randomizes per run; collect the keys, sort, then iterate (or sort the result after the loop)", subject, hazard))
		}
		return true
	})
}

// nakedHTTPFuncs are the net/http convenience functions that ride the
// shared default client — zero timeout, no way to bound a stuck peer.
var nakedHTTPFuncs = map[string]bool{
	"Get": true, "Post": true, "PostForm": true, "Head": true,
}

// lintNakedHTTP implements RuleNakedHTTP: calls to the default-client
// convenience functions (http.Get and friends) and http.Client
// composite literals lacking a Timeout field. The pass has no type
// information, so the net/http import's local name anchors both checks;
// a file that does not import net/http cannot be flagged.
func lintNakedHTTP(f *ast.File, report func(pos token.Pos, rule, msg string)) {
	httpNames := map[string]bool{}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil || path != "net/http" {
			continue
		}
		switch {
		case imp.Name == nil:
			httpNames["http"] = true
		case imp.Name.Name != "." && imp.Name.Name != "_":
			httpNames[imp.Name.Name] = true
		}
	}
	if len(httpNames) == 0 {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || !httpNames[id.Name] || !nakedHTTPFuncs[sel.Sel.Name] {
				return true
			}
			report(sel.Sel.Pos(), RuleNakedHTTP,
				fmt.Sprintf("http.%s uses the shared default client, which has no timeout; build an http.Client with an explicit Timeout so a dead peer cannot wedge the caller", sel.Sel.Name))
		case *ast.CompositeLit:
			sel, ok := n.Type.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || !httpNames[id.Name] || sel.Sel.Name != "Client" {
				return true
			}
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if k, ok := kv.Key.(*ast.Ident); ok && k.Name == "Timeout" {
						return true
					}
				}
			}
			report(n.Pos(), RuleNakedHTTP,
				"http.Client literal without a Timeout field waits forever on a stuck peer; set an explicit Timeout")
		}
		return true
	})
}

// LintDir walks a directory tree of internal simulation packages and lints
// every .go file (tests included — a nondeterministic test is still a
// flaky test), skipping exempt packages and testdata directories.
func LintDir(root string) ([]Diagnostic, error) {
	var diags []Diagnostic
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if ExemptPackages[d.Name()] || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("simlint: parse %s: %w", path, err)
		}
		diags = append(diags, LintFile(fset, f)...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return diags, nil
}

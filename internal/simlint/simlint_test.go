package simlint

import (
	"fmt"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// lintSource parses src (attributed to filename) and lints it.
func lintSource(filename, src string) ([]Diagnostic, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	return LintFile(fset, f), nil
}

func lint(t *testing.T, src string) []Diagnostic {
	t.Helper()
	diags, err := lintSource("fixture.go", src)
	if err != nil {
		t.Fatalf("lintSource: %v", err)
	}
	return diags
}

func rules(diags []Diagnostic) []string {
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = d.Rule
	}
	return out
}

func TestFlagsTimeNow(t *testing.T) {
	diags := lint(t, `package p
import "time"
func f() time.Time { return time.Now() }
`)
	if len(diags) != 1 || diags[0].Rule != RuleTimeNow {
		t.Fatalf("diags = %v, want one %s", diags, RuleTimeNow)
	}
	if diags[0].Pos.Line != 3 {
		t.Errorf("finding at line %d, want 3", diags[0].Pos.Line)
	}
}

func TestFlagsTimeSince(t *testing.T) {
	diags := lint(t, `package p
import "time"
func f(t0 time.Time) time.Duration { return time.Since(t0) }
`)
	if len(diags) != 1 || diags[0].Rule != RuleTimeSince {
		t.Fatalf("diags = %v, want one %s", diags, RuleTimeSince)
	}
}

func TestFlagsAliasedImport(t *testing.T) {
	diags := lint(t, `package p
import wall "time"
func f() wall.Time { return wall.Now() }
`)
	if len(diags) != 1 || diags[0].Rule != RuleTimeNow {
		t.Fatalf("aliased time.Now not flagged: %v", diags)
	}
}

func TestFlagsDotImport(t *testing.T) {
	diags := lint(t, `package p
import . "time"
func f() Time { return Now() }
`)
	if len(diags) != 1 || diags[0].Rule != RuleTimeNow {
		t.Fatalf("dot-imported Now not flagged: %v", diags)
	}
}

func TestFlagsMethodValue(t *testing.T) {
	diags := lint(t, `package p
import "time"
var clock = time.Now
`)
	if len(diags) != 1 || diags[0].Rule != RuleTimeNow {
		t.Fatalf("time.Now method value not flagged: %v", diags)
	}
}

func TestFlagsMathRandImports(t *testing.T) {
	diags := lint(t, `package p
import (
	"math/rand"
	r2 "math/rand/v2"
)
func f() int { return rand.Int() + r2.Int() }
`)
	got := rules(diags)
	if len(got) != 2 || got[0] != RuleMathRand || got[1] != RuleMathRand {
		t.Fatalf("rules = %v, want two %s", got, RuleMathRand)
	}
}

func TestAllowsDeterministicCode(t *testing.T) {
	diags := lint(t, `package p
import "time"
// Durations and explicit timestamps are fine; only wall-clock reads are not.
func f(d time.Duration, a, b time.Time) time.Duration { return b.Sub(a) + d*2 }
`)
	if len(diags) != 0 {
		t.Fatalf("benign time use flagged: %v", diags)
	}
}

func TestAllowsUnrelatedNowIdent(t *testing.T) {
	// A locally defined Now (no dot import of time) must not be flagged.
	diags := lint(t, `package p
func Now() int { return 42 }
func f() int { return Now() }
`)
	if len(diags) != 0 {
		t.Fatalf("local Now() flagged: %v", diags)
	}
}

func TestDiagnosticString(t *testing.T) {
	diags := lint(t, `package p
import "time"
var t0 = time.Now()
`)
	if len(diags) != 1 {
		t.Fatalf("diags = %v", diags)
	}
	s := diags[0].String()
	for _, want := range []string{"fixture.go:3", "simclock", RuleTimeNow} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering %q missing %q", s, want)
		}
	}
}

// TestRepoInternalIsClean is the self-check the satellite asks for: the
// repo's own internal/ tree must stay free of wall-clock and global-rand
// nondeterminism (exempting the simrand/simclock wrappers themselves).
func TestRepoInternalIsClean(t *testing.T) {
	diags, err := LintDir("..")
	if err != nil {
		t.Fatalf("LintDir: %v", err)
	}
	for _, d := range diags {
		t.Errorf("determinism violation: %s", d)
	}
}

// TestFleetInDeterminismScope pins the fleet generator's lint posture:
// the package holds no exemption of any kind — population generation is
// a pure simulation-side function of (size, seed), so every determinism
// and robustness rule applies — and its tree lints clean.
func TestFleetInDeterminismScope(t *testing.T) {
	for name, m := range map[string]map[string]bool{
		"ServingPackages":     ServingPackages,
		"ExemptPackages":      ExemptPackages,
		"goExemptPackages":    goExemptPackages,
		"panicExemptPackages": panicExemptPackages,
	} {
		if m["fleet"] {
			t.Errorf("package fleet must not be in %s", name)
		}
	}
	diags, err := LintDir("../fleet")
	if err != nil {
		t.Fatalf("LintDir: %v", err)
	}
	for _, d := range diags {
		t.Errorf("determinism violation in internal/fleet: %s", d)
	}
}

func TestFlagsTimeSleep(t *testing.T) {
	diags := lint(t, `package p
import "time"
func f() { time.Sleep(time.Second) }
`)
	if len(diags) != 1 || diags[0].Rule != RuleTimeSleep {
		t.Fatalf("diags = %v, want one %s", diags, RuleTimeSleep)
	}
}

func TestFlagsBarePanic(t *testing.T) {
	diags := lint(t, `package p
func f(x int) {
	if x < 0 {
		panic("negative")
	}
}
`)
	if len(diags) != 1 || diags[0].Rule != RulePanic {
		t.Fatalf("diags = %v, want one %s", diags, RulePanic)
	}
	if diags[0].Pos.Line != 4 {
		t.Errorf("finding at line %d, want 4", diags[0].Pos.Line)
	}
}

func TestSleepAndPanicAllowedInTestFiles(t *testing.T) {
	diags, err := lintSource("fixture_test.go", `package p
import "time"
func f() {
	time.Sleep(time.Millisecond)
	panic("test probes may fail hard")
}
`)
	if err != nil {
		t.Fatalf("lintSource: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("test-file sleep/panic flagged: %v", diags)
	}
}

func TestPanicAllowedInInvariantPackage(t *testing.T) {
	diags := lint(t, `package invariant
func f() { panic("assertion layer") }
`)
	if len(diags) != 0 {
		t.Fatalf("invariant-package panic flagged: %v", diags)
	}
	// The wall-clock rules still apply there.
	diags = lint(t, `package invariant
import "time"
var t0 = time.Now()
`)
	if len(diags) != 1 || diags[0].Rule != RuleTimeNow {
		t.Fatalf("invariant package escaped the determinism rules: %v", diags)
	}
}

func TestRecoverNotFlagged(t *testing.T) {
	diags := lint(t, `package p
func f() (err error) {
	defer func() { _ = recover() }()
	return nil
}
`)
	if len(diags) != 0 {
		t.Fatalf("recover flagged: %v", diags)
	}
}

func TestLintDirSkipsExemptPackages(t *testing.T) {
	// simrand legitimately builds on math/rand sources; the repo-wide pass
	// (previous test) only stays clean because exempt directories are
	// skipped during the walk.
	diags, err := LintDir("../simrand")
	if err != nil {
		t.Fatalf("LintDir(simrand): %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("exempt package produced findings: %v", diags)
	}
}

func TestFlagsBareGo(t *testing.T) {
	diags := lint(t, `package p
func f(ch chan int) {
	go func() { ch <- 1 }()
}
`)
	if len(diags) != 1 || diags[0].Rule != RuleBareGo {
		t.Fatalf("diags = %v, want one %s", diags, RuleBareGo)
	}
	if diags[0].Pos.Line != 3 {
		t.Errorf("finding at line %d, want 3", diags[0].Pos.Line)
	}
}

func TestFlagsBareGoInTestFiles(t *testing.T) {
	// Unlike sleep/panic, goroutines are forbidden in tests too: a test
	// that races unmanaged goroutines against the scheduler is exactly as
	// flaky as production code doing it.
	diags := lintAs(t, "fixture_test.go", `package p
func f() { go helper() }
func helper() {}
`)
	if len(diags) != 1 || diags[0].Rule != RuleBareGo {
		t.Fatalf("test-file go statement not flagged: %v", diags)
	}
}

func TestAllowsGoInSchedPackage(t *testing.T) {
	diags := lint(t, `package sched
func pool(n int, work func()) {
	for i := 0; i < n; i++ {
		go work()
	}
}
`)
	if len(diags) != 0 {
		t.Fatalf("scheduler pool flagged: %v", diags)
	}
}

func TestFlagsSharedSourceCapture(t *testing.T) {
	diags := lint(t, `package p
func trials(seed int64) []Trial {
	root := simrand.New(seed)
	shared := root.Derive("strings")
	var ts []Trial
	for i := 0; i < 3; i++ {
		ts = append(ts, NewTrial("in", "l", func() (int, error) {
			return int(shared.Uint64()), nil // scheduling-order dependent
		}))
	}
	_ = shared.Uint64() // and drawn outside the closure too
	return ts
}
`)
	if len(diags) != 1 || diags[0].Rule != RuleSharedSource {
		t.Fatalf("diags = %v, want one %s", diags, RuleSharedSource)
	}
	if !strings.Contains(diags[0].Msg, `"shared"`) {
		t.Errorf("finding does not name the variable: %s", diags[0].Msg)
	}
}

func TestFlagsRootSourceCapturedByTrial(t *testing.T) {
	// The parent stream is derived from in Trials AND drawn inside a
	// closure — the bug the parallel scheduler contract forbids.
	diags := lint(t, `package p
func trials(seed int64) []Trial {
	root := simrand.New(seed)
	plan := root.Derive("plan")
	_ = plan
	return []Trial{NewTrial("in", "l", func() (int, error) {
		return int(root.Uint64()), nil
	})}
}
`)
	if len(diags) != 1 || diags[0].Rule != RuleSharedSource {
		t.Fatalf("diags = %v, want one %s", diags, RuleSharedSource)
	}
}

func TestAllowsPerTrialDerivedStream(t *testing.T) {
	// The sanctioned pattern: each closure captures only the stream
	// derived for it, so no source crosses the closure boundary both ways.
	diags := lint(t, `package p
func trials(seed int64) []Trial {
	root := simrand.New(seed)
	var ts []Trial
	for i := 0; i < 3; i++ {
		stream := root.DeriveIndexed("trial", i)
		ts = append(ts, NewTrial("in", "l", func() (int, error) {
			return int(stream.Uint64()), nil
		}))
	}
	return ts
}
`)
	if len(diags) != 0 {
		t.Fatalf("per-trial derived stream flagged: %v", diags)
	}
}

func TestAllowsGenericAndQualifiedNewTrial(t *testing.T) {
	// The closure scan must see through NewTrial[T] instantiations and
	// experiment.NewTrial qualification.
	diags := lint(t, `package p
func trials(seed int64) []Trial {
	shared := simrand.New(seed)
	t1 := NewTrial[int]("a", "l", func() (int, error) { return int(shared.Uint64()), nil })
	t2 := experiment.NewTrial("b", "l", func() (int, error) { return int(shared.Uint64()), nil })
	_ = shared.Uint64()
	return []Trial{t1, t2}
}
`)
	got := rules(diags)
	if len(got) != 1 || got[0] != RuleSharedSource {
		t.Fatalf("rules = %v, want one %s", got, RuleSharedSource)
	}
}

const unsyncedWriteSrc = `package p
import "os"
func save(path string, b []byte) error { return os.WriteFile(path, b, 0o644) }
`

func lintAs(t *testing.T, filename, src string) []Diagnostic {
	t.Helper()
	diags, err := lintSource(filename, src)
	if err != nil {
		t.Fatalf("lintSource: %v", err)
	}
	return diags
}

func TestFlagsUnsyncedWriteInJournalFile(t *testing.T) {
	for _, name := range []string{"journal.go", "trial_journal.go", "checkpoint.go", "appstore_checkpoint.go"} {
		diags := lintAs(t, name, unsyncedWriteSrc)
		if len(diags) != 1 || diags[0].Rule != RuleUnsyncedWrite {
			t.Errorf("%s: diags = %v, want one %s", name, diags, RuleUnsyncedWrite)
		}
	}
}

func TestFlagsUnsyncedWriteAliasedImport(t *testing.T) {
	diags := lintAs(t, "journal.go", `package p
import sys "os"
func save(path string, b []byte) error { return sys.WriteFile(path, b, 0o644) }
`)
	if len(diags) != 1 || diags[0].Rule != RuleUnsyncedWrite {
		t.Fatalf("aliased os.WriteFile not flagged: %v", diags)
	}
}

func TestFlagsUnsyncedWriteIoutil(t *testing.T) {
	diags := lintAs(t, "checkpoint.go", `package p
import "io/ioutil"
func save(path string, b []byte) error { return ioutil.WriteFile(path, b, 0o644) }
`)
	if len(diags) != 1 || diags[0].Rule != RuleUnsyncedWrite {
		t.Fatalf("ioutil.WriteFile not flagged: %v", diags)
	}
}

func TestAllowsWriteFileOutsideCrashSafeFiles(t *testing.T) {
	// Ordinary production files and journal/checkpoint TESTS may use
	// os.WriteFile (tests deliberately fabricate torn files with it).
	for _, name := range []string{"render.go", "journal_test.go", "checkpoint_test.go"} {
		if diags := lintAs(t, name, unsyncedWriteSrc); len(diags) != 0 {
			t.Errorf("%s: unexpected diags %v", name, diags)
		}
	}
}

func TestAllowsOtherOsCallsInJournalFiles(t *testing.T) {
	diags := lintAs(t, "journal.go", `package p
import "os"
func open(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
}
`)
	if len(diags) != 0 {
		t.Fatalf("os.OpenFile flagged: %v", diags)
	}
}

// servingSrc exercises every determinism rule the serving allowlist
// lifts: wall-clock reads, sleeping, and a bare goroutine.
const servingSrc = `package %s
import "time"
func serve(f func()) time.Duration {
	start := time.Now()
	go f()
	time.Sleep(time.Millisecond)
	return time.Since(start)
}
`

func TestServingExemptionLiftsDeterminismRules(t *testing.T) {
	diags := lintAs(t, "server.go", fmt.Sprintf(servingSrc, "vetd"))
	if len(diags) != 0 {
		t.Fatalf("serving package vetd flagged: %v", diags)
	}
}

func TestServingExemptionIsPackageScoped(t *testing.T) {
	// The identical source under a simulation package clause — even in a
	// file that happens to sit in a serving directory — keeps every
	// finding: the allowlist matches the package clause, not the path.
	diags := lintAs(t, "internal/vetd/impostor.go", fmt.Sprintf(servingSrc, "anim"))
	want := []string{RuleTimeNow, RuleBareGo, RuleTimeSleep, RuleTimeSince}
	got := rules(diags)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("package anim rules = %v, want %v", got, want)
	}
}

func TestServingExemptionCoversSentry(t *testing.T) {
	// The streaming detection service is the third serving package: its
	// admission gate and HTTP handlers run on the wall clock.
	diags := lintAs(t, "server.go", fmt.Sprintf(servingSrc, "sentry"))
	if len(diags) != 0 {
		t.Fatalf("serving package sentry flagged: %v", diags)
	}
}

func TestServingExemptionCoversSentring(t *testing.T) {
	// The detection ingest router is a serving package too: health
	// probes, retry backoff and breaker cooldowns run on the wall clock.
	diags := lintAs(t, "router.go", fmt.Sprintf(servingSrc, "sentring"))
	if len(diags) != 0 {
		t.Fatalf("serving package sentring flagged: %v", diags)
	}
}

func TestServingExemptionCoversRing(t *testing.T) {
	// The serving core both routers share runs probes, retry backoff and
	// breaker cooldowns on the wall clock.
	diags := lintAs(t, "core.go", fmt.Sprintf(servingSrc, "ring"))
	if len(diags) != 0 {
		t.Fatalf("serving package ring flagged: %v", diags)
	}
}

func TestServingExemptionCoversLoad(t *testing.T) {
	// The load tools' package drives real clients and processes on real
	// time.
	diags := lintAs(t, "harness.go", fmt.Sprintf(servingSrc, "load"))
	if len(diags) != 0 {
		t.Fatalf("serving package load flagged: %v", diags)
	}
}

func TestServingExemptionCoversExternalTestPackage(t *testing.T) {
	diags := lintAs(t, "server_test.go", fmt.Sprintf(servingSrc, "vetd_test"))
	if len(diags) != 0 {
		t.Fatalf("external test package vetd_test flagged: %v", diags)
	}
}

func TestServingPackagesKeepRobustnessRules(t *testing.T) {
	// The exemption is determinism-only: a bare panic in serving
	// production code still drops every in-flight request and is flagged,
	// and math/rand stays banned in favour of seeded simrand streams.
	diags := lintAs(t, "server.go", `package vetd
func overload() { panic("queue full") }
`)
	if len(diags) != 1 || diags[0].Rule != RulePanic {
		t.Fatalf("bare panic in vetd not flagged: %v", diags)
	}
	diags = lintAs(t, "server.go", `package vetd
import "math/rand"
func jitter() int { return rand.Int() }
`)
	if len(diags) != 1 || diags[0].Rule != RuleMathRand {
		t.Fatalf("math/rand in vetd not flagged: %v", diags)
	}
}

func TestFlagsMapRangeAppend(t *testing.T) {
	diags := lint(t, `package p
func keys() []string {
	m := make(map[string]int)
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`)
	if len(diags) != 1 || diags[0].Rule != RuleMapRangeOrder {
		t.Fatalf("diags = %v, want one %s", diags, RuleMapRangeOrder)
	}
	if diags[0].Pos.Line != 6 {
		t.Errorf("finding at line %d, want 6", diags[0].Pos.Line)
	}
}

func TestFlagsMapRangeWrite(t *testing.T) {
	// Map-typed parameter, fmt.Fprintf in the loop body: the report's
	// line order is whatever the runtime's hash seed made it.
	diags := lint(t, `package p
import (
	"fmt"
	"io"
)
func dump(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}
`)
	if len(diags) != 1 || diags[0].Rule != RuleMapRangeOrder {
		t.Fatalf("diags = %v, want one %s", diags, RuleMapRangeOrder)
	}
}

func TestFlagsMapRangeWriteStructField(t *testing.T) {
	// Struct fields of map type declared in the same file are tracked
	// too, so `range r.counts` is recognized as a map range.
	diags := lint(t, `package p
import "strings"
type report struct {
	counts map[string]int
}
func (r *report) String() string {
	var sb strings.Builder
	for k := range r.counts {
		sb.WriteString(k)
	}
	return sb.String()
}
`)
	if len(diags) != 1 || diags[0].Rule != RuleMapRangeOrder {
		t.Fatalf("diags = %v, want one %s", diags, RuleMapRangeOrder)
	}
}

func TestAllowsCollectThenSort(t *testing.T) {
	// The canonical fix is itself clean: append inside the loop, sort
	// the destination after it.
	diags := lint(t, `package p
import "sort"
func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
`)
	if len(diags) != 0 {
		t.Fatalf("collect-then-sort flagged: %v", diags)
	}
}

func TestAllowsOrderInsensitiveMapRange(t *testing.T) {
	// Aggregation over a map is order-insensitive and stays legal.
	diags := lint(t, `package p
func total(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}
`)
	if len(diags) != 0 {
		t.Fatalf("map aggregation flagged: %v", diags)
	}
}

func TestAllowsSliceRangeAppend(t *testing.T) {
	// Only names known to hold maps trigger the rule; slice iteration
	// order is defined.
	diags := lint(t, `package p
func double(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, 2*x)
	}
	return out
}
`)
	if len(diags) != 0 {
		t.Fatalf("slice range flagged: %v", diags)
	}
}

// mapRangeSrc is the minimal unsorted collect loop, parameterized on the
// package clause for the serving-exemption tests.
const mapRangeSrc = `package %s
func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`

func TestFlagsMapRangeAppendInTestFiles(t *testing.T) {
	// A nondeterministic test is a flaky test: the rule applies to
	// _test.go files like the other determinism rules.
	diags := lintAs(t, "fixture_test.go", fmt.Sprintf(mapRangeSrc, "p"))
	if len(diags) != 1 || diags[0].Rule != RuleMapRangeOrder {
		t.Fatalf("diags = %v, want one %s", diags, RuleMapRangeOrder)
	}
}

func TestFlagsNakedHTTPGet(t *testing.T) {
	diags := lint(t, `package p
import "net/http"
func probe(url string) (*http.Response, error) { return http.Get(url) }
`)
	if len(diags) != 1 || diags[0].Rule != RuleNakedHTTP {
		t.Fatalf("diags = %v, want one %s", diags, RuleNakedHTTP)
	}
	if diags[0].Pos.Line != 3 {
		t.Errorf("finding at line %d, want 3", diags[0].Pos.Line)
	}
}

func TestFlagsNakedHTTPClientLiteral(t *testing.T) {
	// Both the value and pointer forms of a zero-timeout client literal
	// are flagged; the aliased import resolves too.
	diags := lint(t, `package p
import web "net/http"
var a = web.Client{}
var b = &web.Client{Transport: nil}
`)
	got := rules(diags)
	if len(got) != 2 || got[0] != RuleNakedHTTP || got[1] != RuleNakedHTTP {
		t.Fatalf("rules = %v, want two %s", got, RuleNakedHTTP)
	}
}

func TestAllowsHTTPClientWithTimeout(t *testing.T) {
	diags := lint(t, `package p
import (
	"net/http"
	"time"
)
var client = &http.Client{Timeout: 5 * time.Second}
`)
	if len(diags) != 0 {
		t.Fatalf("client with Timeout flagged: %v", diags)
	}
}

func TestNakedHTTPSkipsTestsAndServingPackages(t *testing.T) {
	src := `package %s
import "net/http"
func probe(url string) (*http.Response, error) { return http.Get(url) }
`
	// Tests hammer httptest servers with http.Get legitimately.
	if diags := lintAs(t, "fixture_test.go", fmt.Sprintf(src, "p")); len(diags) != 0 {
		t.Fatalf("test-file http.Get flagged: %v", diags)
	}
	// The ring router builds its peer clients deliberately (fault-aware
	// transport, explicit timeout); the serving allowlist covers it.
	if diags := lintAs(t, "router.go", fmt.Sprintf(src, "vetring")); len(diags) != 0 {
		t.Fatalf("serving package vetring flagged: %v", diags)
	}
}

func TestNakedHTTPUnrelatedClientNotFlagged(t *testing.T) {
	// Without a net/http import, a local http-named package or a
	// same-named Client type must not trigger the rule.
	diags := lint(t, `package p
import http "example.com/fake"
type Client struct{}
var c = Client{}
var r = http.Fetch("x")
`)
	if len(diags) != 0 {
		t.Fatalf("unrelated idents flagged: %v", diags)
	}
}

func TestMainPackageGetsOnlyNakedHTTPRule(t *testing.T) {
	// A command binary reads the wall clock, sleeps and spawns goroutines
	// legitimately — but its HTTP calls still need deadlines.
	diags := lintAs(t, "cmd/tool/main.go", `package main
import (
	"net/http"
	"time"
)
func main() {
	start := time.Now()
	go func() { time.Sleep(time.Millisecond) }()
	_, _ = http.Get("http://localhost:1")
	_ = time.Since(start)
}
`)
	got := rules(diags)
	if len(got) != 1 || got[0] != RuleNakedHTTP {
		t.Fatalf("main-package rules = %v, want one %s", got, RuleNakedHTTP)
	}
}

// TestRepoCmdIsClean mirrors TestRepoInternalIsClean for the command
// tree, which the default simlint invocation now covers: every cmd/
// binary that speaks HTTP must do so through a client with a deadline.
func TestRepoCmdIsClean(t *testing.T) {
	diags, err := LintDir("../../cmd")
	if err != nil {
		t.Fatalf("LintDir: %v", err)
	}
	for _, d := range diags {
		t.Errorf("violation: %s", d)
	}
}

func TestMapRangeOrderServingExempt(t *testing.T) {
	// Serving packages answer live traffic; their response ordering is
	// not part of the simulation's reproducibility contract. As with the
	// other determinism rules the allowlist matches the package clause,
	// so an impostor package in the serving directory keeps the finding.
	if diags := lintAs(t, "server.go", fmt.Sprintf(mapRangeSrc, "vetd")); len(diags) != 0 {
		t.Fatalf("serving package vetd flagged: %v", diags)
	}
	diags := lintAs(t, "internal/vetd/impostor.go", fmt.Sprintf(mapRangeSrc, "appstore"))
	if len(diags) != 1 || diags[0].Rule != RuleMapRangeOrder {
		t.Fatalf("impostor package diags = %v, want one %s", rules(diags), RuleMapRangeOrder)
	}
}

// Command perfbench is the repository benchmark. It runs one workload
// against in-process components — the registered fleet sweep, or a routed
// serving ring on loopback HTTP — checks every output against a reference
// computation, prints each metric by name and unit, and ends with one JSON
// line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// run measures the workload twice (untraced, then traced, half the time
// each) and reports the per-layer set plus the tracing overhead.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload sentry-ring --seed 1 --seconds 20 --trace 0
//
// See perfbench/README.md for the metric map and the component settings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runConfig is one measured pass of a workload.
type runConfig struct {
	seed    int64
	measure time.Duration // wall time of the measured phases
	trace   bool
	dir     string // scratch directory for stores and span dumps
	nproc   int
	// fault plants a deliberate wrong answer (self-test only): "verdict"
	// alters one vet verdict, "detection" hides one sentry detection,
	// "report" alters one fleet report.
	fault string
}

// report is what one pass of a workload produces.
type report struct {
	attempted, failed int
	failures          []string           // the first few failure descriptions
	e2e, layer        map[string]float64 // metric values by name; units come from endToEnd and perLayer
	lines             []string           // human-readable detail, printed as is
	spans             []span             // traced passes only
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail counts one failed op and keeps its description for the log.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its pass.
var workloads = map[string]func(runConfig) (*report, error){
	"fleet-sweep":           runSweep,
	"sentry-ring":           func(c runConfig) (*report, error) { return runSentry(c, false) },
	"sentry-ring-peer-down": func(c runConfig) (*report, error) { return runSentry(c, true) },
	"vet-ring":              runVet,
}

// endToEnd lists the end-to-end metrics every workload reports, in output
// order. The per-workload meaning of each is in README.md.
var endToEnd = []struct{ name, unit string }{
	{"throughput_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"setup_s", "s"},
	{"heap_peak_mb", "MB"},
}

// perLayer lists the per-layer metrics every traced pass reports; a layer
// the workload bypasses reports 0.
var perLayer = []struct{ name, unit string }{
	{"fleet.generate_ms", "ms"},
	{"sysserver.assemble_us", "us"},
	{"experiment.outcome_ms", "ms"},
	{"experiment.render_ms", "ms"},
	{"simclock.events_per_sim_s", "1/s"},
	{"simclock.ns_per_event", "ns"},
	{"sim.attack.events", "count"},
	{"sim.attack.self_ms", "ms"},
	{"sim.binder.events", "count"},
	{"sim.binder.self_ms", "ms"},
	{"sim.sysserver.events", "count"},
	{"sim.sysserver.self_ms", "ms"},
	{"sim.sysui.events", "count"},
	{"sim.sysui.self_ms", "ms"},
	{"sim.faults.events", "count"},
	{"sim.faults.self_ms", "ms"},
	{"sim.experiment.events", "count"},
	{"sim.experiment.self_ms", "ms"},
	{"sim.other.events", "count"},
	{"sim.other.self_ms", "ms"},
	{"binder.calls_per_sim_s", "1/s"},
	{"binder.log_evictions", "count"},
	{"sched.serial_devices_per_s", "1/s"},
	{"sched.scaling", "x"},
	{"sched.nproc", "count"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"sentry.decode_us_per_batch", "us"},
	{"sentry.engine_us_per_batch", "us"},
	{"sentry.server_us_per_batch", "us"},
	{"sentry.flag_p50_ms", "ms"},
	{"sentrystore.put_ms", "ms"},
	{"sentrystore.puts", "count"},
	{"sentring.self_us_per_batch", "us"},
	{"sentring.attempts_per_batch", "count"},
	{"sentring.acks_per_attempt", "ratio"},
	{"sentring.retries_per_batch", "count"},
	{"sentring.wait_ms_per_batch", "ms"},
	{"sentring.degraded", "count"},
	{"sentring.sheds", "count"},
	{"sentring.dup_acks", "count"},
	{"transport.us_per_attempt", "us"},
	{"vetd.hash_us", "us"},
	{"vetd.analysis_ms", "ms"},
	{"vetd.hit_ratio", "ratio"},
	{"vetd.server_us_per_req", "us"},
	{"vetstore.put_ms", "ms"},
	{"vetring.self_us_per_req", "us"},
	{"vetring.attempts_per_req", "count"},
	{"vetring.failovers_per_req", "count"},
	{"loadgen.lag_ms", "ms"},
	{"http.client_us", "us"},
	{"trace.throughput_overhead_pct", "%"},
	{"trace.p50_overhead_pct", "%"},
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: fleet-sweep, sentry-ring, sentry-ring-peer-down, vet-ring")
	seed := fs.Int64("seed", 1, "workload seed; every input is derived from it")
	seconds := fs.Float64("seconds", 20, "wall seconds of measured phases")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced pass")
	dir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "scratch directory for stores and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := runConfig{
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		nproc:   runtime.GOMAXPROCS(0),
	}
	work, err := os.MkdirTemp(mkdirAll(*dir), fmt.Sprintf("%s-seed%d-", *name, *seed))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	cfg.dir = work

	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%d nproc=%d %s\n",
		*name, *seed, *seconds, *trace, cfg.nproc, runtime.Version())
	out, err := measure(wl, cfg, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if *trace == 1 {
		if err := writeSpans(filepath.Join(*dir, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed)), out.spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(out.result(*trace == 1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports the failure
	return dir
}

// measure runs the workload once untraced and, for a traced run, once more
// with tracing on; the traced pass supplies the per-layer metrics and the
// pair gives the tracing overhead.
func measure(wl func(runConfig) (*report, error), cfg runConfig, trace bool) (*report, error) {
	if !trace {
		r, err := wl(cfg)
		if err != nil {
			return nil, err
		}
		r.print("")
		return r, nil
	}
	// Each pass keeps its stores in its own directory: a store left by the
	// first pass would be recovered by the second, as after a crash.
	cfg.measure /= 2
	dir := cfg.dir
	cfg.dir = mkdirAll(filepath.Join(dir, "untraced"))
	base, err := wl(cfg)
	if err != nil {
		return nil, err
	}
	base.print("untraced ")
	cfg.trace = true
	cfg.dir = mkdirAll(filepath.Join(dir, "traced"))
	traced, err := wl(cfg)
	if err != nil {
		return nil, err
	}
	traced.print("traced ")
	traced.layer["trace.throughput_overhead_pct"] = -pctChange(base.e2e["throughput_per_s"], traced.e2e["throughput_per_s"])
	traced.layer["trace.p50_overhead_pct"] = pctChange(base.e2e["p50_ms"], traced.e2e["p50_ms"])
	for _, m := range endToEnd {
		fmt.Printf("overhead %-26s untraced %12.4f  traced %12.4f %s\n", m.name, base.e2e[m.name], traced.e2e[m.name], m.unit)
	}
	traced.attempted += base.attempted
	traced.failed += base.failed
	traced.failures = append(base.failures, traced.failures...)
	return traced, nil
}

// pctChange is the change from base to v in percent of base.
func pctChange(base, v float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (v - base) / base
}

func (r *report) print(prefix string) {
	for _, l := range r.lines {
		fmt.Println(prefix + l)
	}
	for _, m := range endToEnd {
		fmt.Printf("%se2e   %-30s %14.4f %s\n", prefix, m.name, r.e2e[m.name], m.unit)
	}
	fmt.Printf("%se2e   %-30s %14.6f fraction (%d failed / %d attempted)\n", prefix, "error_rate", errorRate(r), r.failed, r.attempted)
	for _, f := range r.failures {
		fmt.Printf("%sFAIL  %s\n", prefix, f)
	}
	if len(r.layer) > 0 {
		for _, m := range perLayer {
			if v, ok := r.layer[m.name]; ok {
				fmt.Printf("%slayer %-30s %14.4f %s\n", prefix, m.name, v, m.unit)
			}
		}
	}
}

func errorRate(r *report) float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// result is the final JSON line: every end-to-end metric, or every
// per-layer metric (0 where the workload bypasses the layer).
func (r *report) result(layers bool) jsonResult {
	out := jsonResult{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]jsonMetric{},
	}
	specs, vals := endToEnd, r.e2e
	if layers {
		specs, vals = perLayer, r.layer
	}
	for _, m := range specs {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	return out
}

package main

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

func smallConfig(t *testing.T) runConfig {
	return runConfig{seed: 1, measure: 1500 * time.Millisecond, dir: t.TempDir(), nproc: runtime.GOMAXPROCS(0)}
}

// TestWorkloadsSmall runs every workload at small size, traced, and checks
// that each reports every metric with its unit, fails nothing, and records
// only well-formed spans.
func TestWorkloadsSmall(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			r, err := measure(workloads[name], smallConfig(t), true)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Fatalf("failed %d of %d ops: %v", r.failed, r.attempted, r.failures)
			}
			for _, res := range []jsonResult{r.result(false), r.result(true)} {
				if !res.Correct {
					t.Errorf("result not correct")
				}
				for metric, m := range res.Metrics {
					if m.Unit == "" {
						t.Errorf("metric %s has no unit", metric)
					}
				}
			}
			e2e := r.result(false).Metrics
			if len(e2e) != len(endToEnd) {
				t.Errorf("%d end-to-end metrics, want %d", len(e2e), len(endToEnd))
			}
			for _, m := range endToEnd {
				if e2e[m.name].Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", m.name, e2e[m.name].Value)
				}
			}
			if got := len(r.result(true).Metrics); got != len(perLayer) {
				t.Errorf("%d per-layer metrics, want %d", got, len(perLayer))
			}
			ix := indexSpans(r.spans)
			for _, s := range r.spans {
				if self := ix.self(s); self < 0 || self > s.dur() {
					t.Errorf("span %s of op %s: self %d outside [0, %d]", s.Name, s.Op, self, s.dur())
				}
			}
		})
	}
}

// TestWorkloadsIsolateMechanisms checks that each workload exercises the
// layers it is for and bypasses the others.
func TestWorkloadsIsolateMechanisms(t *testing.T) {
	layers := map[string]map[string]float64{}
	for _, name := range workloadNames() {
		cfg := smallConfig(t)
		cfg.trace = true
		r, err := workloads[name](cfg)
		if err != nil {
			t.Fatal(err)
		}
		layers[name] = r.layer
	}
	if w := layers["sentry-ring"]["sentring.wait_ms_per_batch"]; w > 1 {
		t.Errorf("sentry-ring backoff wait %.3f ms per batch, want ≈ 0", w)
	}
	if w := layers["sentry-ring-peer-down"]["sentring.wait_ms_per_batch"]; w < 5 {
		t.Errorf("sentry-ring-peer-down backoff wait %.3f ms per batch, want clearly > 0", w)
	}
	if h := layers["vet-ring"]["vetd.hit_ratio"]; h <= 0 || h >= 1 {
		t.Errorf("vet-ring hit ratio %.4f, want strictly between 0 and 1", h)
	}
	if layers["fleet-sweep"]["simclock.events_per_sim_s"] <= 0 {
		t.Errorf("fleet-sweep reports no simulator work")
	}
	for _, name := range []string{"sentry-ring", "sentry-ring-peer-down", "vet-ring"} {
		for _, m := range []string{"simclock.events_per_sim_s", "sim.binder.events", "binder.calls_per_sim_s", "experiment.outcome_ms"} {
			if v := layers[name][m]; v != 0 {
				t.Errorf("%s reports simulator work %s = %v", name, m, v)
			}
		}
	}
}

// TestSimCountsDeterministic checks that the simulator's event counts
// repeat exactly on the same seed: they are counts from a deterministic
// simulator, so only a change to the simulator may move them.
func TestSimCountsDeterministic(t *testing.T) {
	counts := func() map[string]float64 {
		pr, err := simProbe(sweepJob(7, 0))
		if err != nil {
			t.Fatal(err)
		}
		r := newReport()
		pr.report(r)
		out := map[string]float64{}
		for name, v := range r.layer {
			if name == "simclock.events_per_sim_s" || name == "binder.calls_per_sim_s" || name == "binder.log_evictions" ||
				strings.HasSuffix(name, ".events") {
				out[name] = v
			}
		}
		return out
	}
	a, b := counts(), counts()
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("simulator counts differ across runs on one seed:\n%v\n%v", a, b)
	}
}

// TestPlantedFaultCounted plants a wrong answer in each workload and
// checks that the oracles count it, which proves they are live.
func TestPlantedFaultCounted(t *testing.T) {
	for name, fault := range map[string]string{
		"fleet-sweep":           "report",
		"sentry-ring":           "detection",
		"sentry-ring-peer-down": "detection",
		"vet-ring":              "verdict",
	} {
		t.Run(name, func(t *testing.T) {
			cfg := smallConfig(t)
			cfg.fault = fault
			r, err := workloads[name](cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed == 0 {
				t.Fatalf("planted %s fault not counted (%d ops attempted)", fault, r.attempted)
			}
			if r.result(false).Correct {
				t.Fatalf("planted %s fault still reports correct", fault)
			}
		})
	}
}

// TestBenchmarkJSONMatches checks BENCHMARK.json against the metrics and
// workloads this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, program has %v", names, workloadNames())
	}
	same := func(kind string, a []struct{ Name, Unit string }, b []struct{ name, unit string }) {
		if len(a) != len(b) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(a), len(b))
			return
		}
		for i := range a {
			if a[i].Name != b[i].name || a[i].Unit != b[i].unit {
				t.Errorf("%s %d: %s (%s) in BENCHMARK.json, %s (%s) in the program", kind, i, a[i].Name, a[i].Unit, b[i].name, b[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

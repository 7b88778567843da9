package experiment

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/simrand"
	"repro/internal/sysui"
)

// TestDegradationDeterministic: the acceptance bar for the fault plane —
// the same seed and profile produce a byte-identical degradation report.
func TestDegradationDeterministic(t *testing.T) {
	run := func() string {
		out, err := Run(&degradationExp{profileName: "chaos"}, RunOpts{Seed: 42})
		if err != nil {
			t.Fatalf("degradation: %v", err)
		}
		return out.Text
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("degradation sweep not deterministic:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if !strings.Contains(first, "intensity") {
		t.Fatalf("render missing sweep rows:\n%s", first)
	}
}

// TestDegradationZeroIntensityMatchesBaseline: the sweep's intensity-0 row
// is a genuinely unfaulted run — no injections, no skipped trials, no
// invariant violations.
func TestDegradationZeroIntensityMatchesBaseline(t *testing.T) {
	e := &degradationExp{profileName: "binder"}
	results, err := Collect(e, RunOpts{Seed: 7})
	if err != nil {
		t.Fatalf("degradation: %v", err)
	}
	rep := e.report(results)
	if len(rep.Points) == 0 || rep.Points[0].Intensity != 0 {
		t.Fatalf("sweep does not start at intensity 0: %+v", rep.Points)
	}
	p0 := rep.Points[0]
	if !p0.Faults.Zero() {
		t.Fatalf("intensity 0 injected faults: %s", p0.Faults)
	}
	if p0.SkippedTrials != 0 || p0.Violations != 0 {
		t.Fatalf("intensity 0 skipped %d trials, %d violations", p0.SkippedTrials, p0.Violations)
	}
}

// TestDegradationCancel: cancelling the sweep surfaces the context error;
// with a journal attached the finished trials are preserved for a resume.
func TestDegradationCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(&degradationExp{profileName: "chaos"}, RunOpts{Ctx: ctx, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
}

// TestDefenseIPCFaultSurface: when a drop profile is active the IPC defense
// report must disclose both the profile and the exact number of silently
// dropped transactions — the detector's input stream was lossy.
func TestDefenseIPCFaultSurface(t *testing.T) {
	prof := faults.BinderStress()
	rep, err := DefenseIPC(11, prof)
	if err != nil {
		t.Fatalf("DefenseIPC: %v", err)
	}
	if rep.FaultProfile != prof.Name {
		t.Fatalf("FaultProfile = %q, want %q", rep.FaultProfile, prof.Name)
	}
	if rep.Binder.InjectedDrops == 0 {
		t.Fatal("binder-stress run recorded zero injected drops")
	}
	out := RenderDefenseIPC(rep)
	if !strings.Contains(out, "fault profile active:") || !strings.Contains(out, prof.Name) {
		t.Fatalf("render missing the fault-profile line:\n%s", out)
	}
	if !strings.Contains(out, "silently dropped by fault injection") {
		t.Fatalf("render missing the lossy-stream warning:\n%s", out)
	}
}

// TestDefenseIPCZeroProfileIdentical: the zero-fault strict no-op — a
// fault profile scaled to zero intensity (the degradation sweep's first
// point) attaches no plane and renders byte-identically to the none
// profile.
func TestDefenseIPCZeroProfileIdentical(t *testing.T) {
	plain, err := DefenseIPC(5, faults.None())
	if err != nil {
		t.Fatalf("DefenseIPC(none): %v", err)
	}
	viaNone, err := DefenseIPC(5, faults.BinderStress().Scale(0))
	if err != nil {
		t.Fatalf("DefenseIPC(binder x0): %v", err)
	}
	a, b := RenderDefenseIPC(plain), RenderDefenseIPC(viaNone)
	if a != b {
		t.Fatalf("none profile is not a strict no-op:\n--- plain ---\n%s\n--- none ---\n%s", a, b)
	}
	if strings.Contains(a, "fault profile") {
		t.Fatalf("unfaulted render mentions faults:\n%s", a)
	}
}

// TestDegradationZeroIntensityTracksUnfaultedRunners: the intensity-0 row
// must reproduce the standalone, unfaulted runners exactly — the sweep's
// folding of Table II, §VII-A and §VII-B into the loop cannot change the
// zero-fault answers.
func TestDegradationZeroIntensityTracksUnfaultedRunners(t *testing.T) {
	const seed = 42
	e := &degradationExp{profileName: "chaos"}
	results, err := Collect(e, RunOpts{Seed: seed})
	if err != nil {
		t.Fatalf("degradation: %v", err)
	}
	p0 := e.report(results).Points[0]
	if p0.Intensity != 0 {
		t.Fatalf("first point at intensity %v", p0.Intensity)
	}

	bound, err := measureUpperBoundD(device.Seed().Default(), seed+1)
	if err != nil {
		t.Fatalf("measureUpperBoundD: %v", err)
	}
	if p0.BoundD != bound {
		t.Errorf("zero-intensity BoundD = %v, standalone bound = %v", p0.BoundD, bound)
	}

	ipc, err := DefenseIPC(seed+4000, faults.None())
	if err != nil {
		t.Fatalf("DefenseIPC: %v", err)
	}
	if p0.IPCDetected != ipc.AttackDetected || p0.IPCTerminated != ipc.AttackTerminated || p0.BenignFlagged != ipc.BenignFlagged {
		t.Errorf("zero-intensity IPC verdict (%v, %v, %d) != standalone (%v, %v, %d)",
			p0.IPCDetected, p0.IPCTerminated, p0.BenignFlagged,
			ipc.AttackDetected, ipc.AttackTerminated, ipc.BenignFlagged)
	}

	notif, err := DefenseNotif(seed+5000, faults.None())
	if err != nil {
		t.Fatalf("DefenseNotif: %v", err)
	}
	holds := notif.OutcomeWith == sysui.Lambda5 && notif.HonestAlertGone
	if p0.NotifHolds != holds {
		t.Errorf("zero-intensity NotifHolds = %v, standalone = %v", p0.NotifHolds, holds)
	}
}

// syntheticReport builds a degradation report whose six headline predicates
// follow the given hold/fail bit patterns (patterns[h][i] = headline h
// holds at intensity index i).
func syntheticReport(intensities []float64, patterns [6][]bool) *DegradationReport {
	rep := &DegradationReport{Profile: "synthetic", Seed: 0}
	for i, x := range intensities {
		pt := DegradationPoint{Intensity: x}
		pt.AlertSuppressed = patterns[0][i]
		if patterns[1][i] {
			pt.BoundD = time.Millisecond
		}
		pt.OrderingHolds = patterns[2][i]
		pt.StealTrials = 1
		if patterns[3][i] {
			pt.StealSuccess = 100
		}
		pt.IPCDetected = patterns[4][i]
		pt.IPCTerminated = patterns[4][i]
		pt.NotifHolds = patterns[5][i]
		rep.Points = append(rep.Points, pt)
	}
	return rep
}

// TestMonotoneAnomaliesProperty: for random hold/fail patterns, the
// anomaly scan must flag exactly the headlines where a failure at some
// intensity is followed by a hold at a strictly higher one — computed here
// by brute force over index pairs.
func TestMonotoneAnomaliesProperty(t *testing.T) {
	src := simrand.New(2024)
	intensities := DegradationIntensities()
	names := make([]string, 0, 6)
	for _, h := range degradationHeadlines() {
		names = append(names, h.name)
	}
	for trial := 0; trial < 300; trial++ {
		var patterns [6][]bool
		for h := range patterns {
			patterns[h] = make([]bool, len(intensities))
			for i := range patterns[h] {
				patterns[h][i] = src.Bool(0.5)
			}
		}
		got := MonotoneAnomalies(syntheticReport(intensities, patterns))

		var want []string
		for h := range patterns {
			// Brute force: first failing index, then the first holding
			// index after it.
			fail := -1
			for i, holds := range patterns[h] {
				if !holds {
					fail = i
					break
				}
			}
			if fail < 0 {
				continue
			}
			for i := fail + 1; i < len(intensities); i++ {
				if patterns[h][i] {
					want = append(want, fmt.Sprintf("%s: fails at intensity %.2f but holds at %.2f",
						names[h], intensities[fail], intensities[i]))
					break
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d anomalies, want %d\npatterns: %v\ngot: %q\nwant: %q",
				trial, len(got), len(want), patterns, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: anomaly %d = %q, want %q", trial, i, got[i], want[i])
			}
		}
	}
}

// TestDegradationMonotoneHoldsClean: a monotone pattern (holds up to some
// cut, fails after) must never be flagged.
func TestDegradationMonotoneHoldsClean(t *testing.T) {
	intensities := DegradationIntensities()
	for cut := 0; cut <= len(intensities); cut++ {
		var patterns [6][]bool
		for h := range patterns {
			patterns[h] = make([]bool, len(intensities))
			for i := range patterns[h] {
				patterns[h][i] = i < cut
			}
		}
		if got := MonotoneAnomalies(syntheticReport(intensities, patterns)); len(got) != 0 {
			t.Fatalf("monotone pattern (cut %d) flagged: %q", cut, got)
		}
	}
}

// TestDegradationInvariantBreaks: the sweep-wide aggregation reports each
// rule's lowest breaking intensity and total count from the per-point
// violation maps.
func TestDegradationInvariantBreaks(t *testing.T) {
	rep := &DegradationReport{Points: []DegradationPoint{
		{Intensity: 0, ViolationsByRule: nil},
		{Intensity: 0.5, ViolationsByRule: map[string]int{"rule-b": 2}},
		{Intensity: 1, ViolationsByRule: map[string]int{"rule-a": 1, "rule-b": 3}},
	}}
	rows := rep.InvariantBreaks()
	if len(rows) != 2 {
		t.Fatalf("rows = %+v, want 2", rows)
	}
	if rows[0].Rule != "rule-b" || rows[0].FirstIntensity != 0.5 || rows[0].Total != 5 {
		t.Errorf("rows[0] = %+v", rows[0])
	}
	if rows[1].Rule != "rule-a" || rows[1].FirstIntensity != 1 || rows[1].Total != 1 {
		t.Errorf("rows[1] = %+v", rows[1])
	}
}

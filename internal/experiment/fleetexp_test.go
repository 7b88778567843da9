package experiment

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/sysui"
)

// fleetTestSize keeps the sweep's test population small enough for the
// suite while still covering several OEM families.
const fleetTestSize = 40

// TestGoldenFleet locks the market-weighted sweep report at the reference
// seeds (the fleet generation seed and the run seed move together, so a
// hard-coded 42 anywhere in generation or measurement cannot hide).
func TestGoldenFleet(t *testing.T) {
	for _, c := range goldenSeeds() {
		e := &fleetExp{size: fleetTestSize, fleetSeed: c.seed}
		out, err := Run(e, RunOpts{Seed: c.seed, Workers: goldenWorkers})
		if err != nil {
			t.Fatalf("fleet (seed %d): %v", c.seed, err)
		}
		checkGolden(t, "fleet"+c.suffix, out.Text)
	}
}

// TestFleetRegistryDefaults checks the registry wiring: zero Config values
// take the sweep defaults, explicit values flow into the journal params.
func TestFleetRegistryDefaults(t *testing.T) {
	exp, err := New("fleet", Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got, want := exp.Params(), "size=1000 fleet-seed=42"; got != want {
		t.Errorf("default params = %q, want %q", got, want)
	}
	exp, err = New("fleet", Config{FleetSize: 5, FleetSeed: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got, want := exp.Params(), "size=5 fleet-seed=3"; got != want {
		t.Errorf("params = %q, want %q", got, want)
	}
}

// TestFleetJournalResume simulates a SIGKILL mid-sweep: a journal truncated
// after half the per-device records must resume to a report byte-identical
// to the uninterrupted baseline.
func TestFleetJournalResume(t *testing.T) {
	const seed = 7
	mk := func() *fleetExp { return &fleetExp{size: 10, fleetSeed: 7} }
	baseline, err := Run(mk(), RunOpts{Seed: seed})
	if err != nil {
		t.Fatalf("baseline fleet: %v", err)
	}

	dir := t.TempDir()
	full := filepath.Join(dir, "fleet.journal")
	j, err := OpenJournal(full, "fleet", seed, mk().Params())
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	if _, err := Run(mk(), RunOpts{Seed: seed, Journal: j, Workers: 4}); err != nil {
		t.Fatalf("journaled fleet: %v", err)
	}
	j.Close()
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if len(lines) < 6 {
		t.Fatalf("journal too short: %d lines", len(lines))
	}
	// Keep the header plus half the records — the state a kill -9 leaves.
	truncated := bytes.Join(lines[:1+len(lines)/2], nil)
	part := filepath.Join(dir, "fleet-truncated.journal")
	if err := os.WriteFile(part, truncated, 0o644); err != nil {
		t.Fatalf("write truncated journal: %v", err)
	}
	j2, err := OpenJournal(part, "fleet", seed, mk().Params())
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	defer j2.Close()
	resumed, err := Run(mk(), RunOpts{Seed: seed, Journal: j2, Workers: 4})
	if err != nil {
		t.Fatalf("resumed fleet: %v", err)
	}
	if resumed.Text != baseline.Text {
		t.Fatalf("resumed render diverges from baseline\n-- baseline --\n%s\n-- resumed --\n%s",
			baseline.Text, resumed.Text)
	}
}

// TestFleetEarlyStopMatchesFullRuns replays every verdict run the sweep
// makes on the golden fleets — the Suppressed run, every coarse-bound
// probe and the NotifHolds run — once stopping at its deciding outcome and
// once full length. Both must give the same verdict and error, the stopped
// run may fire no more events than the full one, and the replayed
// verdicts must be the ones measureFleetDevice records, on one rig reused
// across every device.
func TestFleetEarlyStopMatchesFullRuns(t *testing.T) {
	stopped, runs := 0, 0
	rig := new(fleetRig)
	for _, c := range goldenSeeds() {
		fl, err := fleet.Generate(fleetTestSize, c.seed)
		if err != nil {
			t.Fatalf("generate fleet (seed %d): %v", c.seed, err)
		}
		for i, ent := range fl.Entries() {
			seed := c.seed + int64(i)*fleetTrialSeedStep
			// reached runs one verdict run both ways and reports whether the
			// full run's worst outcome reached until.
			reached := func(what string, d, dur time.Duration, defend bool, until sysui.Outcome, runSeed, planeSeed int64) (bool, error) {
				early, evEarly, errEarly := fleetVerdictRun(t, ent, d, dur, defend, until, runSeed, planeSeed)
				full, evFull, errFull := fleetVerdictRun(t, ent, d, dur, defend, 0, runSeed, planeSeed)
				runs++
				name := fmt.Sprintf("seed %d device %d (%s) %s", c.seed, i, ent.Profile.Model, what)
				if fmt.Sprint(errEarly) != fmt.Sprint(errFull) {
					t.Errorf("%s: early-stop error %v, full-run error %v", name, errEarly, errFull)
				}
				if (early >= until) != (full >= until) {
					t.Errorf("%s: early-stop outcome %v, full-run outcome %v, deciding outcome %v", name, early, full, until)
				}
				switch {
				case evEarly > evFull:
					t.Errorf("%s: early-stop run fired %d events, full run %d", name, evEarly, evFull)
				case evEarly < evFull:
					stopped++
				}
				return full >= until, errFull
			}

			d := time.Duration(float64(boundOf(ent.Profile)) * 0.9)
			var want fleetRec
			leaked, err := reached("suppressed", d, fleetAttackDur, false, sysui.Lambda2, seed, seed)
			want.Suppressed = !leaked
			if err == nil {
				probe := int64(0)
				want.BoundD, err = largestPassingD(fleetBoundResol, fleetBoundCeil, func(d time.Duration) (bool, error) {
					probe++
					s := seed + 1000 + probe*101
					leaked, err := reached(fmt.Sprintf("bound probe D=%v", d), d, fleetBoundTrialDur, false, sysui.Lambda2, s, s)
					return !leaked, err
				})
			}
			if err == nil {
				want.NotifHolds, err = reached("notif", d, fleetAttackDur, true, sysui.Lambda5, seed+2000, seed+2001)
			}

			var got fleetRec
			gotErr := measureFleetDevice(rig, &got, ent, seed)
			if fmt.Sprint(gotErr) != fmt.Sprint(err) {
				t.Fatalf("seed %d device %d: measureFleetDevice error %v, replay error %v", c.seed, i, gotErr, err)
			}
			// The IPC verdict comes from a full run that is not replayed.
			got.IPCDetected, got.IPCTerminated = false, false
			if err == nil && got != want {
				t.Fatalf("seed %d device %d: measureFleetDevice recorded %+v, full-run replay %+v", c.seed, i, got, want)
			}
		}
	}
	if stopped == 0 {
		t.Fatalf("none of %d verdict runs stopped early", runs)
	}
	t.Logf("%d of %d verdict runs stopped early", stopped, runs)
}

// fleetVerdictRun makes one fleet verdict run on a fresh stack of the
// device under a fresh instance of its fault plane, reporting the outcome,
// the events fired and the run's error.
func fleetVerdictRun(t *testing.T, ent fleet.Entry, d, dur time.Duration, defend bool, until sysui.Outcome, seed, planeSeed int64) (sysui.Outcome, uint64, error) {
	t.Helper()
	opts, _ := planeFor(ent.Faults, planeSeed)
	st, err := assembleAttackStack(ent.Profile, seed, opts...)
	if err != nil {
		t.Fatalf("assemble %s: %v", ent.Profile.Model, err)
	}
	if defend {
		st.Server.EnableEnhancedNotificationDefense(notifDelayT)
	}
	o, err := runOverlayAttackOn(st, d, dur, 5*time.Second, false, until)
	return o, st.Clock.Fired(), err
}

// TestFleetDeviceAllocBudget holds a warm fleet device's measurements —
// the attack run, the bound probes and both defense runs, on a rig that
// has measured the device before — to the allocations that remain per
// run: the overlay attack and its stop callback, and the §VII-A run's
// detector and engine. The stack and plane allocate nothing once reset,
// and no alert episode allocates. Allocation counts do not drift with
// host speed.
func TestFleetDeviceAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	const budget = 87
	fl, err := fleet.Generate(32, 42)
	if err != nil {
		t.Fatal(err)
	}
	ent := fl.Entries()[1]
	seed := int64(42 + fleetTrialSeedStep)
	r := new(fleetRig)
	var rec fleetRec
	allocs := testing.AllocsPerRun(20, func() {
		if err := measureFleetDevice(r, &rec, ent, seed); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Fatalf("a warm fleet device allocates %.0f times, budget %d", allocs, budget)
	}
}

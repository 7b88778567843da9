package experiment

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/sysserver"
	"repro/internal/sysui"
)

// Fleet-sweep measurement constants: the coarse bound search trades Table
// II's 5 ms resolution for a 20 ms grid so a thousand-device sweep stays
// tractable.
const (
	fleetBoundResol    = 20 * time.Millisecond
	fleetBoundCeil     = 1600 * time.Millisecond
	fleetBoundTrialDur = 4 * time.Second
	fleetAttackDur     = 6 * time.Second
	fleetTrialSeedStep = 7919 // distinct prime stride per device
	fleetDefaultSize   = 1000
	fleetDefaultSeed   = 42
)

// fleetRec is the journaled per-device record of the sweep: the four
// headline measurements on that device under its own calibrated fault
// plane (thermal throttling included).
type fleetRec struct {
	// Skipped marks a device whose measurements failed; it is excluded
	// from the aggregates and counted in the report.
	Skipped bool `json:"skipped,omitempty"`
	// Suppressed is the Fig. 6 headline at D = 0.9× the device's analytic
	// bound: the alert stayed invisible (Λ1), i.e. the attack succeeds.
	Suppressed bool `json:"suppressed"`
	// BoundD is the coarse Table II Λ1 upper bound (0 when even the
	// smallest probe leaks).
	BoundD time.Duration `json:"bound_d"`
	// NotifHolds is the §VII-B verdict: with the delayed-removal patch the
	// same attack degrades to Λ5.
	NotifHolds bool `json:"notif_holds"`
	// IPCDetected and IPCTerminated are the §VII-A verdict: the Binder
	// detector flagged the attacker and revoked its overlays.
	IPCDetected   bool `json:"ipc_detected"`
	IPCTerminated bool `json:"ipc_terminated"`
}

// fleetExp is the generative-population sweep: synthesize a market-share-
// weighted device fleet, then re-run the paper's headline attack and both
// §VII defenses on every device — each under that device's own fault
// calibration — and aggregate by market weight. One trial per device, so
// the sweep shards across the worker pool and journals per device.
type fleetExp struct {
	size      int
	fleetSeed int64
	fl        *fleet.Fleet
}

func (e *fleetExp) Name() string { return "fleet" }
func (e *fleetExp) Params() string {
	return fmt.Sprintf("size=%d fleet-seed=%d", e.size, e.fleetSeed)
}

// fleetRig is one fleet device's stack and fault plane. Every run of the
// device resets both, so the device's runs allocate almost nothing, and
// each run still starts from exactly what a new stack and plane would.
type fleetRig struct {
	st   sysserver.Stack
	pl   faults.Plane
	prof faults.Profile
	opt  [1]sysserver.Option
}

// faults resets the plane to the device's profile and seed and returns
// the assembly options that put a run under it: none for a zero profile,
// so unfaulted runs keep the exact unfaulted stack.
func (r *fleetRig) faults(seed int64) []sysserver.Option {
	if r.prof.Zero() {
		return nil
	}
	r.pl.Reset(r.prof, seed)
	r.opt[0] = sysserver.WithFaults(&r.pl)
	return r.opt[:]
}

// fleetCoarseBound is the Λ1 bound search on a 20 ms grid with a single
// vote per probe — each probe on the rig's stack under a reset instance
// of the device's fault plane, and each stopped at the first visible
// alert pixel (Λ2), which settles its verdict.
func fleetCoarseBound(r *fleetRig, p device.Profile, seed int64) (time.Duration, error) {
	probe := int64(0)
	return largestPassingD(fleetBoundResol, fleetBoundCeil, func(d time.Duration) (bool, error) {
		probe++
		s := seed + probe*101
		o, err := attackOutcome(&r.st, p, d, fleetBoundTrialDur, false, sysui.Lambda2, s, r.faults(s)...)
		return o == sysui.Lambda1, err
	})
}

func (e *fleetExp) Trials(seed int64) ([]Trial, error) {
	fl, err := fleet.Generate(e.size, e.fleetSeed)
	if err != nil {
		return nil, err
	}
	e.fl = fl
	entries := fl.Entries()
	trials := make([]Trial, 0, len(entries))
	for i, ent := range entries {
		i, ent := i, ent
		label := fmt.Sprintf("fleet device %s", ent.Profile.Model)
		trials = append(trials, NewTrial(
			fmt.Sprintf("fleet size=%d fleet-seed=%d seed=%d device=%s",
				e.size, e.fleetSeed, seed, ent.Profile.Model),
			label,
			func() (fleetRec, error) {
				var rec fleetRec
				err := safeTrial(label, func() error {
					return measureFleetDevice(new(fleetRig), &rec, ent, seed+int64(i)*fleetTrialSeedStep)
				})
				if err != nil {
					// A deterministic per-device failure is journaled as a
					// skip so the sweep completes and resumes identically.
					return fleetRec{Skipped: true}, nil
				}
				return rec, nil
			}))
	}
	return trials, nil
}

// measureFleetDevice runs the four sweep measurements on one device, all
// on the rig r, new or used. Each attack run whose verdict is a threshold
// on the worst alert outcome stops at the event that settles it; every run
// resets the stack and the fault plane from its own seeds, so stopping one
// early changes no draw of another.
func measureFleetDevice(r *fleetRig, rec *fleetRec, ent fleet.Entry, seed int64) error {
	p := ent.Profile
	d := time.Duration(float64(boundOf(p)) * 0.9)
	r.prof = ent.Faults

	o, err := attackOutcome(&r.st, p, d, fleetAttackDur, false, sysui.Lambda2, seed, r.faults(seed)...)
	if err != nil {
		return err
	}
	rec.Suppressed = o == sysui.Lambda1

	if rec.BoundD, err = fleetCoarseBound(r, p, seed+1000); err != nil {
		return err
	}
	// §VII-B: the delayed-removal patch wins when the alert completes its
	// lifecycle in front of the user (Λ5).
	if o, err = attackOutcome(&r.st, p, d, fleetAttackDur, true, sysui.Lambda5, seed+2000, r.faults(seed+2001)...); err != nil {
		return err
	}
	rec.NotifHolds = o == sysui.Lambda5
	// §VII-A: the armed Binder detector flags the attacker and revokes
	// its overlays.
	ipc, err := ipcAttack(&r.st, p, d, seed+3000, r.faults(seed+3001)...)
	if err != nil {
		return err
	}
	rec.IPCDetected, rec.IPCTerminated = ipc.AttackDetected, ipc.AttackTerminated
	return nil
}

// fleetAgg accumulates one population slice's market-weighted aggregates.
type fleetAgg struct {
	devices    int
	weight     float64
	suppressed float64 // weight-sum of attack successes
	boundW     float64 // weight-sum of BoundD (for the weighted mean)
	notif      float64
	ipcDet     float64
	ipcTerm    float64
}

func (a *fleetAgg) add(w float64, rec fleetRec) {
	a.devices++
	a.weight += w
	if rec.Suppressed {
		a.suppressed += w
	}
	a.boundW += w * float64(rec.BoundD)
	if rec.NotifHolds {
		a.notif += w
	}
	if rec.IPCDetected {
		a.ipcDet += w
	}
	if rec.IPCTerminated {
		a.ipcTerm += w
	}
}

// row renders the aggregate as one table line. Percentages are weighted
// within the slice; the bound is the slice's weighted mean.
func (a *fleetAgg) row(name string, totalWeight float64) string {
	if a.weight == 0 {
		return fmt.Sprintf("  %-10s %5d      -        -        -         -         -\n", name, a.devices)
	}
	meanBound := time.Duration(a.boundW / a.weight).Round(time.Millisecond)
	return fmt.Sprintf("  %-10s %5d %7.2f%% %7dms %7.1f%% %8.1f%% %8.1f%%/%.1f%%\n",
		name, a.devices, 100*a.weight/totalWeight,
		meanBound/time.Millisecond,
		100*a.suppressed/a.weight,
		100*a.notif/a.weight,
		100*a.ipcDet/a.weight, 100*a.ipcTerm/a.weight)
}

func (e *fleetExp) Render(results []any) (Output, error) {
	byFamily := map[string]*fleetAgg{}
	var famOrder []string
	var animOff, overall fleetAgg
	skipped := 0
	var totalWeight float64
	for i, ent := range e.fl.Entries() {
		rec := Res[fleetRec](results, i)
		if rec.Skipped {
			skipped++
			continue
		}
		w := ent.Weight
		totalWeight += w
		fam := ent.Profile.Family
		agg, ok := byFamily[fam]
		if !ok {
			agg = &fleetAgg{}
			byFamily[fam] = agg
			famOrder = append(famOrder, fam)
		}
		agg.add(w, rec)
		overall.add(w, rec)
		if ent.Profile.AnimationsOff {
			animOff.add(w, rec)
		}
	}
	sort.Strings(famOrder)

	var sb strings.Builder
	fmt.Fprintf(&sb, "Fleet sweep — market-weighted attack success and defense efficacy\n")
	fmt.Fprintf(&sb, "%s, attack at D = 0.9×analytic bound, per-device fault calibration active\n", e.fl.Name())
	sb.WriteString("  family     count   share    Λ1-bound  attack   notif-def  ipc-det/term\n")
	for _, fam := range famOrder {
		sb.WriteString(byFamily[fam].row(fam, totalWeight))
	}
	sb.WriteString(animOff.row("anim-off", totalWeight))
	sb.WriteString(overall.row("fleet-wide", totalWeight))
	if skipped > 0 {
		fmt.Fprintf(&sb, "  (%d devices skipped after measurement failures)\n", skipped)
	}
	return Output{Text: sb.String(), Skipped: skipped}, nil
}

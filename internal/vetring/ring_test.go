package vetring

// These tests pin the shared consistent-hash ring's behaviour on this
// router's placement keys: verdict keys (<IR hash>/tierN).

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
		key := fmt.Sprintf("hash%04d/tier2", i)
		a, b := r1.Replicas(key), r2.Replicas(key)
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
	if got := r.Replicas("k"); len(got) != 1 || got[0] != 0 {
		t.Fatalf("single-peer replicas %v", got)
	}
	if _, err := ring.NewRing(nil, 8, 1); err == nil {
		t.Fatal("empty peer set accepted")
	}
	if _, err := ring.NewRing([]string{"a:1", "a:1"}, 8, 1); err == nil {
		t.Fatal("duplicate peer accepted")
	}
}

// TestRingMinimalReshuffle: removing one peer moves only keys that
// peer owned; everything else keeps its primary.
func TestRingMinimalReshuffle(t *testing.T) {
	all := []string{"a:1", "b:1", "c:1", "d:1"}
	full, _ := ring.NewRing(all, 64, 1)
	reduced, _ := ring.NewRing(all[:3], 64, 1)
	moved, kept := 0, 0
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("hash%04d/tier0", i)
		pf := full.Replicas(key)[0]
		pr := reduced.Replicas(key)[0]
		if pf == 3 {
			continue // owned by the removed peer; must move
		}
		if all[pf] == all[:3][pr] {
			kept++
		} else {
			moved++
		}
	}
	if moved > 0 {
		t.Fatalf("%d keys moved off surviving peers (kept %d); consistent hashing must move only the removed peer's keys", moved, kept)
	}
}

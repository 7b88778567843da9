package ring

import (
	"fmt"
	"testing"
	"time"
)

// TestRingPlacementDeterministicAndDistinct covers both routers' key
// shapes: sentring's sequential device IDs and vetring's verdict keys
// (<IR hash>/tierN), whose shared suffix is what raw FNV-1a clusters.
func TestRingPlacementDeterministicAndDistinct(t *testing.T) {
	peers := []string{"a:1", "b:1", "c:1", "d:1"}
	r1, err := NewRing(peers, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := NewRing(peers, 64, 2)
	for _, shape := range []string{"dev-%05d", "%064x/tier0"} {
		counts := make([]int, len(peers))
		for i := 0; i < 2000; i++ {
			key := fmt.Sprintf(shape, i)
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
				t.Fatalf("%s: primary distribution degenerate: peer %d owns %d/2000", shape, i, c)
			}
		}
	}
}

func TestRingReplicasClampedAndErrors(t *testing.T) {
	r, err := NewRing([]string{"solo:1"}, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Replicas("k"); len(got) != 1 || got[0] != 0 {
		t.Fatalf("single-peer replicas %v", got)
	}
	if _, err := NewRing(nil, 8, 1); err == nil {
		t.Fatal("empty peer set accepted")
	}
	if _, err := NewRing([]string{"a:1", "a:1"}, 8, 1); err == nil {
		t.Fatal("duplicate peer accepted")
	}
}

// TestRingMinimalReshuffle: removing one peer moves only keys that
// peer owned; everything else keeps its primary.
func TestRingMinimalReshuffle(t *testing.T) {
	all := []string{"a:1", "b:1", "c:1", "d:1"}
	full, _ := NewRing(all, 64, 1)
	reduced, _ := NewRing(all[:3], 64, 1)
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

func TestBreakerLifecycle(t *testing.T) {
	b := newBreaker(3, 50*time.Millisecond)
	if !b.allow() {
		t.Fatal("fresh breaker refuses")
	}
	b.onFailure()
	b.onFailure()
	if !b.allow() {
		t.Fatal("breaker opened below threshold")
	}
	b.onFailure()
	if b.allow() {
		t.Fatal("breaker still closed at threshold")
	}
	if st, opens := b.snapshot(); st != "open" || opens != 1 {
		t.Fatalf("state %s opens %d, want open/1", st, opens)
	}
	time.Sleep(60 * time.Millisecond)
	if !b.allow() {
		t.Fatal("breaker did not half-open after cooldown")
	}
	if b.allow() {
		t.Fatal("half-open admitted a second trial")
	}
	b.onFailure() // trial fails → reopen immediately
	if b.allow() {
		t.Fatal("failed trial did not reopen")
	}
	time.Sleep(60 * time.Millisecond)
	if !b.allow() {
		t.Fatal("second half-open refused")
	}
	b.onSuccess()
	if !b.allow() || !b.allow() {
		t.Fatal("successful trial did not close the breaker")
	}
}

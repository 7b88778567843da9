package experiment

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

// oldBoundLoop is the bisection each Λ1 bound search (Table II, the fleet
// sweep's coarse grid, the ANA ablation) carried before they shared
// largestPassingD. It is the reference for the probe order: the fleet
// sweep seeds each probe from a call counter, so a different order would
// change its results.
func oldBoundLoop(resolution, ceil time.Duration, pass func(time.Duration) (bool, error)) (time.Duration, error) {
	lo, hi := resolution, ceil
	ok, err := pass(lo)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, nil
	}
	for hi-lo > resolution {
		mid := (lo + hi) / 2 / resolution * resolution
		ok, err := pass(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// boundGrids are the (resolution, ceiling) pairs the bound searches use.
var boundGrids = []struct{ resolution, ceil time.Duration }{
	{5 * time.Millisecond, 800 * time.Millisecond},
	{20 * time.Millisecond, 1600 * time.Millisecond},
}

// TestLargestPassingD runs the search over a synthetic monotone predicate
// (pass iff D ≤ bound) for every bound below the ceiling at 1 ms steps:
// it must return the largest passing grid point, 0 when the smallest probe
// fails, and probe in exactly the old loops' order.
func TestLargestPassingD(t *testing.T) {
	for _, g := range boundGrids {
		for bound := time.Duration(0); bound < g.ceil; bound += time.Millisecond {
			var got, want []time.Duration
			pass := func(probes *[]time.Duration) func(time.Duration) (bool, error) {
				return func(d time.Duration) (bool, error) {
					*probes = append(*probes, d)
					return d <= bound, nil
				}
			}
			d, err := largestPassingD(g.resolution, g.ceil, pass(&got))
			if err != nil {
				t.Fatalf("res %v bound %v: %v", g.resolution, bound, err)
			}
			wantD := bound / g.resolution * g.resolution
			if d != wantD {
				t.Fatalf("res %v bound %v: got %v, want the largest passing grid point %v", g.resolution, bound, d, wantD)
			}
			if _, err := oldBoundLoop(g.resolution, g.ceil, pass(&want)); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("res %v bound %v: probe order %v, old loops probed %v", g.resolution, bound, got, want)
			}
		}
	}
}

// TestLargestPassingDPropagatesError: an error from any probe aborts the
// search at once and is returned with a zero bound.
func TestLargestPassingDPropagatesError(t *testing.T) {
	boom := errors.New("probe failed")
	g := boundGrids[0]
	const bound = 437 * time.Millisecond
	for failAt := 1; ; failAt++ {
		calls := 0
		d, err := largestPassingD(g.resolution, g.ceil, func(d time.Duration) (bool, error) {
			calls++
			if calls == failAt {
				return false, boom
			}
			return d <= bound, nil
		})
		if calls < failAt {
			// The search finished before the failing probe: every probe
			// position has been covered.
			if err != nil || d != bound/g.resolution*g.resolution {
				t.Fatalf("clean search returned (%v, %v)", d, err)
			}
			return
		}
		if !errors.Is(err, boom) || d != 0 {
			t.Fatalf("failing probe %d: got (%v, %v), want (0, %v)", failAt, d, err, boom)
		}
		if calls != failAt {
			t.Fatalf("failing probe %d: search kept probing (%d calls)", failAt, calls)
		}
	}
}

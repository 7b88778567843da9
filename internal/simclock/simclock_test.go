package simclock

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestNewClockStartsAtZero(t *testing.T) {
	c := New()
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
	if c.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", c.Len())
	}
}

func TestAtFiresInOrder(t *testing.T) {
	c := New()
	var order []string
	mustAt := func(when time.Duration, label string) {
		t.Helper()
		if _, err := c.At(when, label, func() { order = append(order, label) }); err != nil {
			t.Fatalf("At(%v, %q): %v", when, label, err)
		}
	}
	mustAt(30*time.Millisecond, "c")
	mustAt(10*time.Millisecond, "a")
	mustAt(20*time.Millisecond, "b")
	if err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"a", "b", "c"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if got := c.Now(); got != 30*time.Millisecond {
		t.Fatalf("Now() = %v, want 30ms", got)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	c := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if _, err := c.At(5*time.Millisecond, "tie", func() { order = append(order, i) }); err != nil {
			t.Fatalf("At: %v", err)
		}
	}
	if err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("order[%d] = %d, want %d (ties must fire FIFO)", i, got, i)
		}
	}
}

func TestSchedulingInPastFails(t *testing.T) {
	c := New()
	if _, err := c.At(10*time.Millisecond, "x", func() {}); err != nil {
		t.Fatalf("At: %v", err)
	}
	if err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, err := c.At(5*time.Millisecond, "past", func() {}); err == nil {
		t.Fatal("At in the past succeeded, want error")
	}
}

func TestNegativeDelayFails(t *testing.T) {
	c := New()
	if _, err := c.After(-time.Millisecond, "neg", func() {}); err == nil {
		t.Fatal("After(-1ms) succeeded, want error")
	}
}

func TestNilCallbackFails(t *testing.T) {
	c := New()
	if _, err := c.At(0, "nil", nil); err == nil {
		t.Fatal("At with nil callback succeeded, want error")
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	c := New()
	fired := false
	ev, err := c.After(time.Millisecond, "x", func() { fired = true })
	if err != nil {
		t.Fatalf("After: %v", err)
	}
	c.Cancel(ev)
	if err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Fatal("canceled event fired")
	}
	if !ev.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
}

func TestCancelNilAndDoubleCancelAreNoOps(t *testing.T) {
	c := New()
	c.Cancel(nil)
	ev, err := c.After(time.Millisecond, "x", func() {})
	if err != nil {
		t.Fatalf("After: %v", err)
	}
	c.Cancel(ev)
	c.Cancel(ev)
	if err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestCancelAfterFiringIsNoOp checks that canceling an event that already
// ran leaves it reported as fired, not canceled.
func TestCancelAfterFiringIsNoOp(t *testing.T) {
	c := New()
	fired := 0
	ev := c.MustAfter(time.Millisecond, "x", func() { fired++ })
	if err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	c.Cancel(ev)
	if fired != 1 {
		t.Fatalf("event fired %d times, want 1", fired)
	}
	if ev.Canceled() {
		t.Fatal("Canceled() = true for an event that fired")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	c := New()
	var at []time.Duration
	if _, err := c.After(10*time.Millisecond, "first", func() {
		at = append(at, c.Now())
		c.MustAfter(5*time.Millisecond, "second", func() {
			at = append(at, c.Now())
		})
	}); err != nil {
		t.Fatalf("After: %v", err)
	}
	if err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(at) != 2 || at[0] != 10*time.Millisecond || at[1] != 15*time.Millisecond {
		t.Fatalf("fire times = %v, want [10ms 15ms]", at)
	}
}

func TestRunUntilAdvancesToDeadline(t *testing.T) {
	c := New()
	fired := 0
	c.MustAfter(10*time.Millisecond, "in", func() { fired++ })
	c.MustAfter(100*time.Millisecond, "out", func() { fired++ })
	if err := c.RunUntil(50 * time.Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if got := c.Now(); got != 50*time.Millisecond {
		t.Fatalf("Now() = %v, want 50ms", got)
	}
	if err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 after full Run", fired)
	}
}

func TestRunUntilPastDeadlineFails(t *testing.T) {
	c := New()
	c.MustAfter(20*time.Millisecond, "x", func() {})
	if err := c.RunUntil(20 * time.Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if err := c.RunUntil(10 * time.Millisecond); err == nil {
		t.Fatal("RunUntil with past deadline succeeded, want error")
	}
}

func TestRunForNegativeFails(t *testing.T) {
	c := New()
	if err := c.RunFor(-time.Second); err == nil {
		t.Fatal("RunFor(-1s) succeeded, want error")
	}
}

func TestStopHaltsClock(t *testing.T) {
	c := New()
	fired := 0
	c.MustAfter(time.Millisecond, "a", func() {
		fired++
		c.Stop()
	})
	c.MustAfter(2*time.Millisecond, "b", func() { fired++ })
	if err := c.Run(); err != ErrStopped {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if !c.Stopped() {
		t.Fatal("Stopped() = false")
	}
	if c.Step() {
		t.Fatal("Step on stopped clock fired an event")
	}
}

func TestTraceObservesEvents(t *testing.T) {
	c := New()
	var seen []string
	c.SetTrace(func(_ time.Duration, label string) { seen = append(seen, label) })
	c.MustAfter(time.Millisecond, "one", func() {})
	c.MustAfter(2*time.Millisecond, "two", func() {})
	if err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(seen) != 2 || seen[0] != "one" || seen[1] != "two" {
		t.Fatalf("trace = %v, want [one two]", seen)
	}
	if c.Fired() != 2 {
		t.Fatalf("Fired() = %d, want 2", c.Fired())
	}
}

func TestNextEventTime(t *testing.T) {
	c := New()
	if got := c.NextEventTime(); got != time.Duration(math.MaxInt64) {
		t.Fatalf("NextEventTime on empty clock = %v, want max", got)
	}
	ev := c.MustAfter(7*time.Millisecond, "x", func() {})
	if got := c.NextEventTime(); got != 7*time.Millisecond {
		t.Fatalf("NextEventTime = %v, want 7ms", got)
	}
	c.Cancel(ev)
	if got := c.NextEventTime(); got != time.Duration(math.MaxInt64) {
		t.Fatalf("NextEventTime after cancel = %v, want max", got)
	}
}

func TestLenSkipsCanceled(t *testing.T) {
	c := New()
	ev := c.MustAfter(time.Millisecond, "x", func() {})
	c.MustAfter(2*time.Millisecond, "y", func() {})
	c.Cancel(ev)
	if got := c.Len(); got != 1 {
		t.Fatalf("Len() = %d, want 1", got)
	}
}

// TestPropertyMonotoneFiring checks that for any batch of non-negative
// delays, events fire in nondecreasing time order and the clock never runs
// backwards.
func TestPropertyMonotoneFiring(t *testing.T) {
	prop := func(delays []uint16) bool {
		c := New()
		var fireTimes []time.Duration
		for _, d := range delays {
			when := time.Duration(d) * time.Microsecond
			if _, err := c.At(when, "p", func() { fireTimes = append(fireTimes, c.Now()) }); err != nil {
				return false
			}
		}
		if err := c.Run(); err != nil {
			return false
		}
		if len(fireTimes) != len(delays) {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDeterminism checks that two clocks fed the same schedule
// produce identical traces.
func TestPropertyDeterminism(t *testing.T) {
	prop := func(delays []uint16) bool {
		run := func() []time.Duration {
			c := New()
			var fireTimes []time.Duration
			for _, d := range delays {
				when := time.Duration(d) * time.Microsecond
				if _, err := c.At(when, "p", func() { fireTimes = append(fireTimes, c.Now()) }); err != nil {
					return nil
				}
			}
			if err := c.Run(); err != nil {
				return nil
			}
			return fireTimes
		}
		a, b := run(), run()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChainedTimersSimulatePeriodicWork(t *testing.T) {
	c := New()
	const period = 50 * time.Millisecond
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			c.MustAfter(period, "tick", tick)
		}
	}
	c.MustAfter(period, "tick", tick)
	if err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if got, want := c.Now(), 10*period; got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

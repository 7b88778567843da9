package simclock

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestNewClockStartsAtZero(t *testing.T) {
	c := New()
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
	if n := c.pending(); n != 0 {
		t.Fatalf("pending() = %d, want 0", n)
	}
}

// pending counts the queued events that are not canceled.
func (c *Clock) pending() int {
	n := 0
	for _, e := range c.queue {
		if c.slab[e.slot].fn != nil {
			n++
		}
	}
	return n
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
	if c.Fired() != 0 {
		t.Fatalf("Fired() = %d after canceling the only event, want 0", c.Fired())
	}
}

func TestCancelNilAndDoubleCancelAreNoOps(t *testing.T) {
	c := New()
	c.Cancel(Handle{})
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
// ran changes nothing, even once its slot holds a later event: the stale
// handle must not cancel the new one.
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
	next := c.MustAfter(time.Millisecond, "y", func() { fired++ })
	if next.slot != ev.slot {
		t.Fatalf("second event took slot %d, want the freed slot %d", next.slot, ev.slot)
	}
	c.Cancel(ev) // stale: its slot now holds next
	if err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 2 {
		t.Fatalf("events fired %d times, want 2: a stale handle canceled a reused slot", fired)
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
	if got := c.pending(); got != 1 {
		t.Fatalf("pending() = %d, want 1", got)
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

// slabExact reports whether every slab slot is either queued, holding
// the sequence number of its one heap entry, or free and cleared.
func (c *Clock) slabExact() bool {
	if len(c.queue)+len(c.free) != len(c.slab) {
		return false
	}
	seen := make(map[uint32]bool, len(c.slab))
	for _, e := range c.queue {
		if seen[e.slot] || c.slab[e.slot].seq != e.seq {
			return false
		}
		seen[e.slot] = true
	}
	for _, slot := range c.free {
		if ev := c.slab[slot]; seen[slot] || ev.fn != nil || ev.label != "" || ev.seq != 0 {
			return false
		}
		seen[slot] = true
	}
	return true
}

// TestPropertyHeapOrder drives the event heap with random schedules: many
// events at equal times, events scheduled from inside callbacks, and
// cancels both before and after firing. Events must fire in exactly the
// order of a reference sort on (when, seq), and every slab slot must be
// either queued under its own sequence number or free.
func TestPropertyHeapOrder(t *testing.T) {
	type sched struct {
		h    Handle
		when time.Duration
	}
	prop := func(ops []uint16) bool {
		c := New()
		var all []sched
		var fired []Handle
		done := map[Handle]bool{} // fired or canceled while queued
		cancel := func(h Handle) {
			done[h] = true
			c.Cancel(h)
		}
		ok := true
		// Bits of op: 0-1 the delay in µs (so times collide often), 2
		// schedule a child carrying op>>5 from the callback, 3 cancel an
		// already-fired event from the callback, 4 cancel a queued event
		// from the callback.
		var schedule func(op uint16)
		schedule = func(op uint16) {
			var h Handle
			h = c.MustAfter(time.Duration(op&3)*time.Microsecond, "p", func() {
				fired = append(fired, h)
				done[h] = true
				ok = ok && c.slabExact()
				if op&4 != 0 {
					schedule(op >> 5)
				}
				if op&8 != 0 {
					c.Cancel(fired[len(fired)/2])
				}
				if op&16 != 0 && len(c.queue) > 0 {
					last := c.queue[len(c.queue)-1]
					cancel(Handle{slot: last.slot, seq: last.seq})
				}
			})
			all = append(all, sched{h, c.Now() + time.Duration(op&3)*time.Microsecond})
		}
		for i, op := range ops {
			schedule(op)
			if op&32 != 0 {
				cancel(all[i/2].h) // before any event fires
			}
		}
		ok = ok && c.slabExact()
		if err := c.Run(); err != nil || !ok || len(c.queue) != 0 {
			return false
		}
		firedSet := map[Handle]bool{}
		for _, h := range fired {
			firedSet[h] = true
		}
		var want []sched
		for _, s := range all {
			// An event canceled before it fired never fires; every
			// other event does.
			if firedSet[s.h] || !done[s.h] {
				want = append(want, s)
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].when != want[j].when {
				return want[i].when < want[j].when
			}
			return want[i].h.seq < want[j].h.seq
		})
		if len(fired) != len(want) {
			return false
		}
		for i := range want {
			if fired[i] != want[i].h {
				return false
			}
		}
		return c.slabExact()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMatchesReferenceModel runs random interleavings of At,
// Cancel (of queued, fired and stale handles, and of the zero handle),
// Step, RunUntil and Stop against a reference model that keeps pending
// events in a list and fires the least by (when, seq). Both must fire the
// same (when, seq, label) sequence and end at the same Now.
func TestPropertyMatchesReferenceModel(t *testing.T) {
	type fire struct {
		when  time.Duration
		seq   uint64
		label string
	}
	type modelEvent struct {
		fire
		h Handle
	}
	labels := []string{"a", "b", "c", "d"}
	prop := func(ops []uint32) bool {
		c := New()
		var got, want []fire
		var handles []Handle
		var queued []modelEvent // the model's pending events
		var now time.Duration
		stopped := false
		var seq uint64
		modelStep := func(deadline time.Duration) bool {
			if stopped || len(queued) == 0 {
				return false
			}
			min := 0
			for i, e := range queued {
				if e.when < queued[min].when || e.when == queued[min].when && e.seq < queued[min].seq {
					min = i
				}
			}
			if queued[min].when > deadline {
				return false
			}
			e := queued[min]
			queued = append(queued[:min], queued[min+1:]...)
			now = e.when
			want = append(want, e.fire)
			return true
		}
		for _, op := range ops {
			arg := op >> 3
			switch op & 7 {
			case 0, 1, 2: // At
				when := c.Now() + time.Duration(arg%5)*time.Microsecond
				label := labels[arg%uint32(len(labels))]
				seq++
				f := fire{when, seq, label}
				h, err := c.At(when, label, func() { got = append(got, f) })
				if err != nil {
					return false
				}
				handles = append(handles, h)
				queued = append(queued, modelEvent{f, h})
			case 3: // Cancel any handle ever issued, or the zero handle
				var h Handle
				if len(handles) > 0 && arg%8 != 0 {
					h = handles[int(arg)%len(handles)]
				}
				c.Cancel(h)
				for i, e := range queued {
					if e.h == h {
						queued = append(queued[:i], queued[i+1:]...)
						break
					}
				}
			case 4, 5: // Step
				if c.Step() != modelStep(time.Duration(math.MaxInt64)) {
					return false
				}
			case 6: // RunUntil
				deadline := c.Now() + time.Duration(arg%7)*time.Microsecond
				err := c.RunUntil(deadline)
				for modelStep(deadline) {
				}
				if stopped {
					if err != ErrStopped {
						return false
					}
				} else if err != nil {
					return false
				} else if now < deadline {
					now = deadline
				}
			case 7: // Stop, rarely
				if arg%16 == 0 {
					c.Stop()
					stopped = true
				}
			}
			if c.Now() != now {
				return false
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return c.Fired() == uint64(len(got)) && c.slabExact()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestAtStepAllocBudget: once the slab and the heap have room, scheduling
// one event and firing it allocates nothing. Allocation counts do not
// drift with host speed.
func TestAtStepAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	c := New()
	fn := func() {}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := c.At(c.Now()+time.Microsecond, "budget", fn); err != nil {
			t.Fatalf("At: %v", err)
		}
		c.Step()
	})
	if allocs > 0 {
		t.Fatalf("At + Step allocates %.1f times, budget 0", allocs)
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

// TestResetMatchesNew stops a clock with events pending, a trace installed
// and handles outstanding, resets it, and checks that it behaves as a new
// clock: time zero, nothing pending, nothing fired, no trace, and a stale
// handle that cannot cancel the event now occupying its slot. A reset
// clock then fires the same schedule at the same times as a new one.
func TestResetMatchesNew(t *testing.T) {
	c := New()
	traced := 0
	c.SetTrace(func(Duration, string) { traced++ })
	var stale []Handle
	for i := 0; i < 20; i++ {
		stale = append(stale, c.MustAfter(time.Duration(i)*time.Millisecond, "dirty", func() {}))
	}
	if err := c.RunFor(5 * time.Millisecond); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	c.Stop()
	c.Reset()
	if c.Now() != 0 || c.Fired() != 0 || c.Stopped() || c.pending() != 0 || c.trace != nil || !c.slabExact() {
		t.Fatalf("after Reset: now %v, fired %d, stopped %v, pending %d, trace set %v",
			c.Now(), c.Fired(), c.Stopped(), c.pending(), c.trace != nil)
	}
	fresh := New()
	var got, want []Duration
	for i := 0; i < 30; i++ {
		d := time.Duration(i*7%11) * time.Millisecond
		c.MustAfter(d, "clean", func() { got = append(got, c.Now()) })
		fresh.MustAfter(d, "clean", func() { want = append(want, fresh.Now()) })
	}
	for _, h := range stale {
		c.Cancel(h)
	}
	if err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := fresh.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != len(want) || c.Fired() != fresh.Fired() || traced != 6 {
		t.Fatalf("reset clock fired %d events (%d), new clock %d; trace saw %d before Reset, want 6", len(got), c.Fired(), len(want), traced)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d fired at %v on the reset clock, %v on a new one", i, got[i], want[i])
		}
	}
}

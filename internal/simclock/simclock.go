// Package simclock provides a deterministic discrete-event scheduler with
// virtual time. All simulated Android components (Binder, Window Manager,
// System UI, attacker threads) schedule work on a single Clock, which fires
// events in nondecreasing virtual-time order. The same seed and schedule
// always produce an identical trace, which makes the timing races the paper
// exploits reproducible and testable.
package simclock

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Duration aliases time.Duration; virtual time is expressed as an offset
// from the simulation epoch.
type Duration = time.Duration

// ErrStopped is returned by Run variants when the clock has been stopped
// explicitly via Stop.
var ErrStopped = errors.New("simclock: clock stopped")

// Handle refers to one scheduled event; Cancel takes it. It is a small
// value: the event's slot in the clock's slab and the event's sequence
// number, which doubles as the slot's generation. The zero Handle refers
// to no event.
type Handle struct {
	slot uint32
	seq  uint64
}

// event is one slab slot. A slot holds a queued event while seq is
// nonzero; fn is nil once the event is canceled. A fired or popped slot
// is cleared (seq 0) and goes back on the free list, so a Handle to the
// event it held no longer matches: sequence numbers are never reused.
type event struct {
	fn    func()
	label string
	seq   uint64
}

// entry is one heap element: an event's firing time and sequence number,
// which order it, and its slab slot.
type entry struct {
	when Duration
	seq  uint64
	slot uint32
}

// before orders entries by (when, seq). The order is total, so events
// scheduled for the same instant fire in scheduling order whatever the
// heap's shape.
func (e entry) before(o entry) bool {
	return e.when < o.when || e.when == o.when && e.seq < o.seq
}

// eventQueue is a binary min-heap of entries ordered by before.
type eventQueue []entry

// push queues e, sifting it up from the last slot.
func (q *eventQueue) push(e entry) {
	*q = append(*q, e)
	h, i := *q, len(*q)-1
	for ; i > 0 && e.before(h[(i-1)/2]); i = (i - 1) / 2 {
		h[i] = h[(i-1)/2]
	}
	h[i] = e
}

// pop removes and returns the earliest entry; the queue must not be
// empty. The last entry takes the root's place and sifts down.
func (q *eventQueue) pop() entry {
	h := *q
	top, n := h[0], len(h)-1
	last := h[n]
	h = h[:n]
	*q = h
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	return top
}

// TraceFunc receives every fired event for diagnostic logging.
type TraceFunc func(at Duration, label string)

// Clock is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; simulated concurrency is expressed by scheduling events,
// not by goroutines, so runs are deterministic.
//
// Events live by value in a slab whose freed slots are reused, so once
// the slab and the heap have grown to the run's peak queue, scheduling
// and firing an event allocate nothing.
type Clock struct {
	now     Duration
	queue   eventQueue
	slab    []event
	free    []uint32 // free slab slots
	seq     uint64
	stopped bool
	trace   TraceFunc
	fired   uint64
}

// initialSlots is the slab and heap capacity a new Clock starts with,
// enough for the queue of most attack trials (about nine in ten of a
// fleet sweep's clocks never hold more); a deeper queue grows both.
const initialSlots = 8

// New returns a Clock at virtual time zero.
func New() *Clock {
	return &Clock{
		queue: make(eventQueue, 0, initialSlots),
		slab:  make([]event, 0, initialSlots),
		free:  make([]uint32, 0, initialSlots),
	}
}

// Reset returns the clock to the state New leaves it in, whatever it was
// doing: pending events are dropped unfired, the trace is removed, and
// Now, Fired and Stopped start over. The slab and heap keep their grown
// capacity, so a reset clock schedules without allocating. Sequence
// numbers keep counting across a Reset, so a Handle taken before it
// never matches a later event and canceling it stays a no-op.
func (c *Clock) Reset() {
	clear(c.slab) // drops what pending callbacks captured
	c.slab = c.slab[:0]
	c.queue = c.queue[:0]
	c.free = c.free[:0]
	c.now = 0
	c.stopped = false
	c.trace = nil
	c.fired = 0
}

// SetTrace installs fn to observe every fired event. A nil fn disables
// tracing.
func (c *Clock) SetTrace(fn TraceFunc) { c.trace = fn }

// Now reports the current virtual time.
func (c *Clock) Now() Duration { return c.now }

// Fired reports how many events have fired since the clock was created
// or last Reset.
func (c *Clock) Fired() uint64 { return c.fired }

// At schedules fn to run at absolute virtual time when. Scheduling in the
// past (before Now) is an error; scheduling exactly at Now is allowed and
// fires on the next step. The returned Handle can be canceled.
func (c *Clock) At(when Duration, label string, fn func()) (Handle, error) {
	if fn == nil {
		return Handle{}, errors.New("simclock: nil event callback")
	}
	if when < c.now {
		return Handle{}, fmt.Errorf("simclock: schedule %q at %v before now %v", label, when, c.now)
	}
	c.seq++
	var slot uint32
	if n := len(c.free); n > 0 {
		slot, c.free = c.free[n-1], c.free[:n-1]
	} else {
		slot = uint32(len(c.slab))
		c.slab = append(c.slab, event{})
	}
	c.slab[slot] = event{fn: fn, label: label, seq: c.seq}
	c.queue.push(entry{when: when, seq: c.seq, slot: slot})
	return Handle{slot: slot, seq: c.seq}, nil
}

// After schedules fn to run delay after the current virtual time. A
// negative delay is an error.
func (c *Clock) After(delay Duration, label string, fn func()) (Handle, error) {
	if delay < 0 {
		return Handle{}, fmt.Errorf("simclock: negative delay %v for %q", delay, label)
	}
	return c.At(c.now+delay, label, fn)
}

// MustAfter is After for callers whose delay is known non-negative; it
// panics on error and is intended for internal wiring where a failure is a
// programming bug, not a runtime condition.
func (c *Clock) MustAfter(delay Duration, label string, fn func()) Handle {
	h, err := c.After(delay, label, fn)
	if err != nil {
		panic(err)
	}
	return h
}

// Cancel keeps the event h refers to from firing. Canceling the zero
// Handle, an event that already fired or was canceled, or a stale handle
// whose slot now holds a later event is a no-op. A canceled event stays
// queued until it reaches the head of the queue, where it is skipped.
func (c *Clock) Cancel(h Handle) {
	if h.seq == 0 || int(h.slot) >= len(c.slab) || c.slab[h.slot].seq != h.seq {
		return
	}
	c.slab[h.slot].fn = nil // also drops what the callback captured
}

// release clears a popped event's slot and returns it to the free list.
func (c *Clock) release(slot uint32) {
	c.slab[slot] = event{}
	c.free = append(c.free, slot)
}

// Step fires the earliest pending event, advancing Now to its time. It
// reports whether an event fired; false means the queue is empty or the
// clock is stopped.
func (c *Clock) Step() bool {
	if c.stopped {
		return false
	}
	for len(c.queue) > 0 {
		next := c.queue.pop()
		ev := c.slab[next.slot]
		c.release(next.slot)
		if ev.fn == nil {
			continue // canceled
		}
		if next.when < c.now {
			panic(fmt.Sprintf("simclock: event %q at %v fires before now %v", ev.label, next.when, c.now))
		}
		c.now = next.when
		c.fired++
		if c.trace != nil {
			c.trace(c.now, ev.label)
		}
		ev.fn()
		return true
	}
	return false
}

// Run fires events until the queue drains or the clock is stopped. It
// returns ErrStopped if Stop was called, nil otherwise.
func (c *Clock) Run() error {
	for c.Step() {
	}
	if c.stopped {
		return ErrStopped
	}
	return nil
}

// RunUntil fires events with time ≤ deadline, then advances Now to deadline
// (if Now is behind it). Events after deadline remain queued.
func (c *Clock) RunUntil(deadline Duration) error {
	if deadline < c.now {
		return fmt.Errorf("simclock: deadline %v before now %v", deadline, c.now)
	}
	for !c.stopped {
		next, ok := c.peek()
		if !ok || next.when > deadline {
			break
		}
		c.Step()
	}
	if c.stopped {
		return ErrStopped
	}
	if c.now < deadline {
		c.now = deadline
	}
	return nil
}

// RunFor runs the clock for d of virtual time past the current instant.
func (c *Clock) RunFor(d Duration) error {
	if d < 0 {
		return fmt.Errorf("simclock: negative run duration %v", d)
	}
	return c.RunUntil(c.now + d)
}

// Stop halts the clock: no further events fire and Run variants return
// ErrStopped. Pending events stay queued for inspection.
func (c *Clock) Stop() { c.stopped = true }

// Stopped reports whether Stop has been called.
func (c *Clock) Stopped() bool { return c.stopped }

// peek returns the earliest pending entry, popping canceled entries at
// the head of the queue on the way; ok is false when none is pending.
func (c *Clock) peek() (head entry, ok bool) {
	for len(c.queue) > 0 {
		head = c.queue[0]
		if c.slab[head.slot].fn != nil {
			return head, true
		}
		c.queue.pop()
		c.release(head.slot)
	}
	return entry{}, false
}

// NextEventTime reports the virtual time of the earliest pending event, or
// math.MaxInt64 if none is queued.
func (c *Clock) NextEventTime() Duration {
	next, ok := c.peek()
	if !ok {
		return Duration(math.MaxInt64)
	}
	return next.when
}

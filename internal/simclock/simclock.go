// Package simclock provides a deterministic discrete-event scheduler with
// virtual time. All simulated Android components (Binder, Window Manager,
// System UI, attacker threads) schedule work on a single Clock, which fires
// events in nondecreasing virtual-time order. The same seed and schedule
// always produce an identical trace, which makes the timing races the paper
// exploits reproducible and testable.
package simclock

import (
	"container/heap"
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

// Event is a scheduled callback. The callback runs at the event's virtual
// time with the clock already advanced to that time.
type Event struct {
	when     Duration
	seq      uint64
	index    int // heap index; -1 when not queued
	canceled bool
	label    string
	fn       func()
}

// Label reports the debug label given at scheduling time.
func (e *Event) Label() string { return e.label }

// Canceled reports whether the event was canceled before firing.
func (e *Event) Canceled() bool { return e.canceled }

// eventQueue is a min-heap ordered by (when, seq) so that events scheduled
// for the same instant fire in scheduling order.
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].when != q[j].when {
		return q[i].when < q[j].when
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev, ok := x.(*Event)
	if !ok {
		panic(fmt.Sprintf("simclock: eventQueue.Push got %T, want *Event", x))
	}
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// TraceFunc receives every fired event for diagnostic logging.
type TraceFunc func(at Duration, label string)

// Clock is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; simulated concurrency is expressed by scheduling events,
// not by goroutines, so runs are deterministic.
type Clock struct {
	now     Duration
	queue   eventQueue
	seq     uint64
	stopped bool
	trace   TraceFunc
	fired   uint64
}

// New returns a Clock at virtual time zero.
func New() *Clock {
	return &Clock{}
}

// SetTrace installs fn to observe every fired event. A nil fn disables
// tracing.
func (c *Clock) SetTrace(fn TraceFunc) { c.trace = fn }

// Now reports the current virtual time.
func (c *Clock) Now() Duration { return c.now }

// Len reports the number of pending (non-canceled) events.
func (c *Clock) Len() int {
	n := 0
	for _, ev := range c.queue {
		if !ev.canceled {
			n++
		}
	}
	return n
}

// Fired reports how many events have fired since the clock was created.
func (c *Clock) Fired() uint64 { return c.fired }

// At schedules fn to run at absolute virtual time when. Scheduling in the
// past (before Now) is an error; scheduling exactly at Now is allowed and
// fires on the next step. The returned Event can be canceled.
func (c *Clock) At(when Duration, label string, fn func()) (*Event, error) {
	if fn == nil {
		return nil, errors.New("simclock: nil event callback")
	}
	if when < c.now {
		return nil, fmt.Errorf("simclock: schedule %q at %v before now %v", label, when, c.now)
	}
	c.seq++
	ev := &Event{when: when, seq: c.seq, label: label, fn: fn, index: -1}
	heap.Push(&c.queue, ev)
	return ev, nil
}

// After schedules fn to run delay after the current virtual time. A
// negative delay is an error.
func (c *Clock) After(delay Duration, label string, fn func()) (*Event, error) {
	if delay < 0 {
		return nil, fmt.Errorf("simclock: negative delay %v for %q", delay, label)
	}
	return c.At(c.now+delay, label, fn)
}

// MustAfter is After for callers whose delay is known non-negative; it
// panics on error and is intended for internal wiring where a failure is a
// programming bug, not a runtime condition.
func (c *Clock) MustAfter(delay Duration, label string, fn func()) *Event {
	ev, err := c.After(delay, label, fn)
	if err != nil {
		panic(err)
	}
	return ev
}

// Cancel marks ev canceled. Canceling a nil, already-fired, or
// already-canceled event is a no-op: an event that has left the queue
// keeps the Canceled state it left with. Canceled events are skipped when
// they reach the head of the queue.
func (c *Clock) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 {
		return
	}
	ev.canceled = true
}

// Step fires the earliest pending event, advancing Now to its time. It
// reports whether an event fired; false means the queue is empty or the
// clock is stopped.
func (c *Clock) Step() bool {
	if c.stopped {
		return false
	}
	for len(c.queue) > 0 {
		next, ok := heap.Pop(&c.queue).(*Event)
		if !ok {
			panic("simclock: queue contained non-event")
		}
		if next.canceled {
			continue
		}
		if next.when < c.now {
			panic(fmt.Sprintf("simclock: event %q at %v fires before now %v", next.label, next.when, c.now))
		}
		c.now = next.when
		c.fired++
		if c.trace != nil {
			c.trace(c.now, next.label)
		}
		next.fn()
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
		next := c.peek()
		if next == nil || next.when > deadline {
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

func (c *Clock) peek() *Event {
	for len(c.queue) > 0 {
		head := c.queue[0]
		if !head.canceled {
			return head
		}
		if popped, ok := heap.Pop(&c.queue).(*Event); !ok || popped != head {
			panic("simclock: heap pop mismatch while discarding canceled event")
		}
	}
	return nil
}

// NextEventTime reports the virtual time of the earliest pending event, or
// math.MaxInt64 if none is queued.
func (c *Clock) NextEventTime() Duration {
	next := c.peek()
	if next == nil {
		return Duration(math.MaxInt64)
	}
	return next.when
}

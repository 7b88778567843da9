// Package binder simulates the slice of Android's Binder IPC that the
// paper's attacks and defenses depend on: asynchronous transactions between
// named processes, per-call latency sampled from a device profile, and
// delivery observers that see each transaction with its caller identity and
// timestamps (the Section VII-A IPC-based detector reads deliveries through
// one). The bus keeps no transaction log; it counts its traffic in Stats.
//
// Delivery semantics follow the paper's empirical observations rather than
// a strict global FIFO: calls on the same (from, to, method) stream are
// delivered in order, but calls on different methods may overtake each
// other — the paper observes that an addView issued *after* a removeView
// still reaches System Server first because the two travel different Binder
// paths with different latencies (Tam < Trm).
//
// Each stream keeps its in-flight transactions in a FIFO and schedules
// one clock event per delivery, all with the same callback, built once
// per stream. A stream's delivery times are clamped to be nondecreasing
// and the clock breaks ties by scheduling order, so the stream's events
// fire in the order they were pushed, duplicates included, and each one
// pops the FIFO's head. A call therefore allocates no closure: once the
// stream exists, Call and its delivery allocate nothing of their own. A
// stream also binds its latency distribution when it opens, so a call
// samples it without asking the latency model again.
//
// Reset returns a used bus to the state NewBus leaves it in. Its streams
// survive a Reset closed, with empty FIFOs, and reopen on their next call,
// so a reused bus allocates nothing for the streams it carried before.
package binder

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/simclock"
	"repro/internal/simrand"
)

// ProcessID names a simulated process, e.g. "com.evil.app",
// "system_server" or "com.android.systemui".
type ProcessID string

// Well-known system processes.
const (
	SystemServer ProcessID = "system_server"
	SystemUI     ProcessID = "com.android.systemui"
)

// Transaction is one Binder call, in flight or as handed to a handler and
// the observers on delivery.
type Transaction struct {
	// ID is a unique, monotonically increasing transaction id.
	ID uint64
	// From and To identify the caller and callee processes.
	From, To ProcessID
	// Method is the remote method name, e.g. "addView".
	Method string
	// Payload carries the argument object; handlers type-assert it.
	Payload any
	// SentAt and DeliveredAt are virtual timestamps.
	SentAt, DeliveredAt time.Duration
}

// Handler receives delivered transactions for one endpoint.
type Handler func(tx Transaction)

// Observer is notified of every delivered transaction; the IPC defense
// installs one to collect the per-caller add/remove pattern.
type Observer func(tx Transaction)

// LatencyFunc supplies the latency distribution for a stream; the device
// profile implements it. The bus asks once per stream, when the stream
// opens, so the answer must depend on (from, to, method) alone. Returning
// the zero Dist means instant delivery.
type LatencyFunc func(from, to ProcessID, method string) simrand.Dist

// TxFault describes injected misbehaviour for one transaction: Drop
// discards it after an id is assigned (the caller still sees success —
// oneway semantics), Duplicate delivers it twice, Delay adds extra latency
// before the per-stream FIFO clamp (delaying one stream lets calls on
// other streams overtake — reordering pressure).
type TxFault struct {
	Drop      bool
	Duplicate bool
	Delay     time.Duration
}

// FaultInjector decides the fate of each transaction; the fault plane
// implements it. The zero TxFault leaves the transaction untouched.
type FaultInjector interface {
	TransactionFault(from, to ProcessID, method string) TxFault
}

// Bus routes transactions between registered endpoints on the simulation
// clock.
type Bus struct {
	clock    *simclock.Clock
	rng      *simrand.Source
	latency  LatencyFunc
	handlers map[ProcessID]Handler
	nextID   uint64

	// streams holds each (from,to,method) stream's delivery state,
	// created on the stream's first routable call and closed, not
	// deleted, by Reset.
	streams map[streamKey]*stream

	observers []Observer

	faults FaultInjector

	stats Stats
}

// Stats is the bus's transaction accounting, each count taken where it
// happens: every Call, routable or not; the extra deliveries the fault
// injector duplicated; deliveries fired and still in flight; transactions
// the fault injector discarded in flight; and calls to unregistered
// processes.
type Stats struct {
	Calls, Duplicated, Delivered, InFlight, InjectedDrops, Unroutable uint64
}

// Balanced reports whether the accounting identity Calls + Duplicated ==
// Delivered + InFlight + InjectedDrops + Unroutable holds.
func (s Stats) Balanced() bool {
	return s.Calls+s.Duplicated == s.Delivered+s.InFlight+s.InjectedDrops+s.Unroutable
}

type streamKey struct {
	from, to ProcessID
	method   string
}

// stream is one (from,to,method) stream's state, built on the stream's
// first routable call: the latest delivery time scheduled on it, which
// keeps a later call from being delivered before an earlier one; the
// callee's handler, nil while the stream is closed; the latency
// distribution bound when it opened; the event labels of a delivery and
// of an injected duplicate; the FIFO of transactions awaiting delivery,
// pending[head:]; and the delivery callback every event on the stream
// runs. pending starts out on first, which holds the one transaction a
// stream has in flight at a time in the common case.
type stream struct {
	last            time.Duration
	handler         Handler
	dist            simrand.Dist
	label, dupLabel string
	pending         []Transaction
	head            int
	first           [1]Transaction
	deliver         func()
}

// push appends tx to the FIFO, first sliding the pending transactions to
// the front of the buffer when it is full and has room there.
func (st *stream) push(tx Transaction) {
	if st.head > 0 && len(st.pending) == cap(st.pending) {
		n := copy(st.pending, st.pending[st.head:])
		clear(st.pending[n:])
		st.pending, st.head = st.pending[:n], 0
	}
	st.pending = append(st.pending, tx)
}

// pop removes and returns the FIFO's head; the FIFO must not be empty.
func (st *stream) pop() Transaction {
	tx := st.pending[st.head]
	st.pending[st.head] = Transaction{} // drop the payload reference
	st.head++
	if st.head == len(st.pending) {
		st.pending, st.head = st.pending[:0], 0
	}
	return tx
}

// Config configures a Bus.
type Config struct {
	// Clock drives delivery; required.
	Clock *simclock.Clock
	// RNG samples latencies; required.
	RNG *simrand.Source
	// Latency supplies per-call latency distributions; nil means all
	// calls deliver instantly (useful in unit tests).
	Latency LatencyFunc
}

// NewBus builds a Bus.
func NewBus(cfg Config) (*Bus, error) {
	if cfg.Clock == nil {
		return nil, errors.New("binder: nil clock")
	}
	if cfg.RNG == nil {
		return nil, errors.New("binder: nil rng")
	}
	return &Bus{
		clock:    cfg.Clock,
		rng:      cfg.RNG,
		latency:  cfg.Latency,
		handlers: make(map[ProcessID]Handler),
		streams:  make(map[streamKey]*stream),
	}, nil
}

// Reset returns the bus to the state NewBus leaves it in, on the same
// clock and random stream, with latency as its latency model: no
// handlers, observers or fault injector, zero stats and transaction ids,
// and every stream closed with an empty FIFO. The clock must be reset
// with it, since the deliveries it held are dropped here.
func (b *Bus) Reset(latency LatencyFunc) {
	b.latency = latency
	clear(b.handlers)
	for _, st := range b.streams {
		st.close()
	}
	clear(b.observers)
	b.observers = b.observers[:0]
	b.faults = nil
	b.nextID = 0
	b.stats = Stats{}
}

// Register installs the handler for a process. Registering a process twice
// is an error; registering a nil handler is an error.
func (b *Bus) Register(id ProcessID, h Handler) error {
	if id == "" {
		return errors.New("binder: empty process id")
	}
	if h == nil {
		return fmt.Errorf("binder: nil handler for %q", id)
	}
	if _, dup := b.handlers[id]; dup {
		return fmt.Errorf("binder: process %q already registered", id)
	}
	b.handlers[id] = h
	return nil
}

// Observe installs an observer notified of every delivered transaction.
func (b *Bus) Observe(obs Observer) {
	if obs != nil {
		b.observers = append(b.observers, obs)
	}
}

// SetFaultInjector installs fi to adjudicate every subsequent Call. A nil
// injector (the default) leaves every transaction untouched.
func (b *Bus) SetFaultInjector(fi FaultInjector) { b.faults = fi }

// Call sends an asynchronous (oneway) transaction from one process to
// another. It returns the assigned transaction id. Calls to unregistered
// processes are counted as unroutable and return an error.
func (b *Bus) Call(from, to ProcessID, method string, payload any) (uint64, error) {
	b.stats.Calls++
	key := streamKey{from: from, to: to, method: method}
	st := b.streams[key]
	if st == nil || st.handler == nil {
		handler, ok := b.handlers[to]
		if !ok {
			b.stats.Unroutable++
			return 0, fmt.Errorf("binder: no process %q registered (call %s from %q)", to, method, from)
		}
		if st == nil {
			st = b.newStream(key)
			b.streams[key] = st
		}
		st.handler = handler
		if b.latency != nil {
			st.dist = b.latency(from, to, method)
		}
	}
	b.nextID++
	tx := Transaction{
		ID:      b.nextID,
		From:    from,
		To:      to,
		Method:  method,
		Payload: payload,
		SentAt:  b.clock.Now(),
	}
	var fault TxFault
	if b.faults != nil {
		fault = b.faults.TransactionFault(from, to, method)
	}
	if fault.Drop {
		// The transaction vanishes in flight. Oneway callers see success
		// (there is no reply to miss), so the id is still returned; only
		// the injected-drop counter records the loss.
		b.stats.InjectedDrops++
		return tx.ID, nil
	}
	delay := st.dist.Sample(b.rng) + fault.Delay
	deliverAt := b.clock.Now() + delay
	if deliverAt < st.last {
		deliverAt = st.last // per-stream FIFO
	}
	st.last = deliverAt
	if _, err := b.clock.At(deliverAt, st.label, st.deliver); err != nil {
		return 0, fmt.Errorf("binder: schedule delivery: %w", err)
	}
	st.push(tx)
	b.stats.InFlight++
	if fault.Duplicate {
		if _, err := b.clock.At(deliverAt, st.dupLabel, st.deliver); err != nil {
			return 0, fmt.Errorf("binder: schedule duplicate delivery: %w", err)
		}
		st.push(tx)
		b.stats.InFlight++
		b.stats.Duplicated++
	}
	return tx.ID, nil
}

// newStream builds the state of the stream key, closed; Call opens it.
func (b *Bus) newStream(key streamKey) *stream {
	// One string backs both labels.
	dup := "binder:" + string(key.from) + "→" + string(key.to) + "." + key.method + "/dup"
	st := &stream{label: dup[:len(dup)-len("/dup")], dupLabel: dup}
	st.pending = st.first[:0]
	st.deliver = func() { b.deliver(st) }
	return st
}

// close empties the stream and unbinds its handler and latency, so its
// next call reopens it as a new stream would start.
func (st *stream) close() {
	clear(st.pending)
	st.pending, st.head = st.pending[:0], 0
	st.last = 0
	st.handler = nil
	st.dist = simrand.Dist{}
}

// deliver hands the stream's oldest in-flight transaction, stamped with
// the delivery time, to the observers and then to the handler.
func (b *Bus) deliver(st *stream) {
	tx := st.pop()
	tx.DeliveredAt = b.clock.Now()
	b.stats.InFlight--
	b.stats.Delivered++
	for _, obs := range b.observers {
		obs(tx)
	}
	st.handler(tx)
}

// Stats reports the bus's transaction accounting.
func (b *Bus) Stats() Stats { return b.stats }

// DroppedLogEntries always reports 0: the bus keeps no transaction log, so
// nothing is evicted. It stays only because the perfbench module reads it
// for its binder.log_evictions metric; the next change to that benchmark
// drops the method together with the metric.
func (b *Bus) DroppedLogEntries() uint64 { return 0 }

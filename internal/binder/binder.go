// Package binder simulates the slice of Android's Binder IPC that the
// paper's attacks and defenses depend on: asynchronous transactions between
// named processes, per-call latency sampled from a device profile, and a
// transaction log with caller identity and timestamps (the raw material of
// the Section VII-A IPC-based defense).
//
// Delivery semantics follow the paper's empirical observations rather than
// a strict global FIFO: calls on the same (from, to, method) stream are
// delivered in order, but calls on different methods may overtake each
// other — the paper observes that an addView issued *after* a removeView
// still reaches System Server first because the two travel different Binder
// paths with different latencies (Tam < Trm).
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

// Transaction is one Binder call in flight or in the log.
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

// LatencyFunc supplies the latency distribution for a call; the device
// profile implements it. Returning the zero Dist means instant delivery.
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

	// lastDelivery enforces per-stream FIFO: a call may not be delivered
	// before an earlier call on the same (from,to,method) stream. Each
	// entry also carries the stream's event label.
	lastDelivery map[streamKey]stream

	log       []Transaction
	logLimit  int
	observers []Observer

	faults FaultInjector

	dropped       uint64
	droppedLog    uint64
	injectedDrops uint64
}

type streamKey struct {
	from, to ProcessID
	method   string
}

// stream is one (from,to,method) stream's state: the latest delivery time
// scheduled on it and its event label, built on the stream's first call.
type stream struct {
	last  time.Duration
	label string
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
	// LogLimit caps the in-memory transaction log; zero selects a
	// generous default, negative disables logging.
	LogLimit int
}

// defaultLogLimit bounds the transaction log so week-long simulated attacks
// do not hold every transaction in memory.
const defaultLogLimit = 1 << 20

// NewBus builds a Bus.
func NewBus(cfg Config) (*Bus, error) {
	if cfg.Clock == nil {
		return nil, errors.New("binder: nil clock")
	}
	if cfg.RNG == nil {
		return nil, errors.New("binder: nil rng")
	}
	limit := cfg.LogLimit
	if limit == 0 {
		limit = defaultLogLimit
	}
	return &Bus{
		clock:        cfg.Clock,
		rng:          cfg.RNG,
		latency:      cfg.Latency,
		handlers:     make(map[ProcessID]Handler),
		lastDelivery: make(map[streamKey]stream),
		logLimit:     limit,
	}, nil
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
// processes are counted as dropped and return an error.
func (b *Bus) Call(from, to ProcessID, method string, payload any) (uint64, error) {
	handler, ok := b.handlers[to]
	if !ok {
		b.dropped++
		return 0, fmt.Errorf("binder: no process %q registered (call %s from %q)", to, method, from)
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
		b.injectedDrops++
		return tx.ID, nil
	}
	delay := time.Duration(0)
	if b.latency != nil {
		delay = b.latency(from, to, method).Sample(b.rng)
	}
	delay += fault.Delay
	deliverAt := b.clock.Now() + delay
	key := streamKey{from: from, to: to, method: method}
	st, ok := b.lastDelivery[key]
	if !ok {
		st.label = "binder:" + string(from) + "→" + string(to) + "." + method
	} else if deliverAt < st.last {
		deliverAt = st.last // per-stream FIFO
	}
	st.last = deliverAt
	b.lastDelivery[key] = st
	deliver := func() {
		tx.DeliveredAt = b.clock.Now()
		b.record(tx)
		handler(tx)
	}
	if _, err := b.clock.At(deliverAt, st.label, deliver); err != nil {
		return 0, fmt.Errorf("binder: schedule delivery: %w", err)
	}
	if fault.Duplicate {
		if _, err := b.clock.At(deliverAt, st.label+"/dup", deliver); err != nil {
			return 0, fmt.Errorf("binder: schedule duplicate delivery: %w", err)
		}
	}
	return tx.ID, nil
}

// record logs a delivered transaction, unless logging is disabled, and
// notifies the observers either way.
func (b *Bus) record(tx Transaction) {
	if b.logLimit >= 0 {
		if len(b.log) >= b.logLimit {
			// Drop the oldest half rather than one-at-a-time to keep
			// append amortized O(1). The evictions are counted: a
			// truncated log must not masquerade as a quiet caller to
			// log-based analyses.
			keep := b.logLimit / 2
			b.droppedLog += uint64(len(b.log) - keep)
			b.log = append(b.log[:0], b.log[len(b.log)-keep:]...)
		}
		b.log = append(b.log, tx)
	}
	for _, obs := range b.observers {
		obs(tx)
	}
}

// Log returns a copy of the delivered-transaction log in delivery order.
func (b *Bus) Log() []Transaction {
	out := make([]Transaction, len(b.log))
	copy(out, b.log)
	return out
}

// Dropped reports how many calls targeted unregistered processes.
func (b *Bus) Dropped() uint64 { return b.dropped }

// InjectedDrops reports how many transactions the fault injector
// discarded in flight. Accounting stays exact under faults:
// delivered + InjectedDrops + Dropped == calls attempted (duplicates add
// extra deliveries on top).
func (b *Bus) InjectedDrops() uint64 { return b.injectedDrops }

// DroppedLogEntries reports how many delivered transactions have been
// evicted from the in-memory log because LogLimit was hit. Consumers of
// Log must treat a non-zero value as an incomplete view: an app
// absent from a truncated log is not necessarily a quiet caller.
func (b *Bus) DroppedLogEntries() uint64 { return b.droppedLog }

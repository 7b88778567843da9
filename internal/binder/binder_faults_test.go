package binder

import (
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/simrand"
)

// scriptedInjector adjudicates transactions by call index, so tests control
// exactly which transactions are dropped, duplicated or delayed.
type scriptedInjector struct {
	n      int
	decide func(i int, method string) TxFault
}

func (s *scriptedInjector) TransactionFault(_, _ ProcessID, method string) TxFault {
	f := s.decide(s.n, method)
	s.n++
	return f
}

// TestInjectedDropAccountingExact: every injected drop is counted, the
// caller still sees oneway success (non-zero id, nil error), and
// delivered + injected drops + unroutable accounts for every attempted call.
func TestInjectedDropAccountingExact(t *testing.T) {
	bus, clock := newTestBus(t, nil)
	delivered := 0
	if err := bus.Register(SystemServer, func(Transaction) { delivered++ }); err != nil {
		t.Fatalf("Register: %v", err)
	}
	bus.SetFaultInjector(&scriptedInjector{decide: func(i int, _ string) TxFault {
		return TxFault{Drop: i%3 == 0} // drop calls 0, 3, 6, ...
	}})
	const attempts = 10
	for i := 0; i < attempts; i++ {
		id, err := bus.Call("app", SystemServer, "addView", i)
		if err != nil {
			t.Fatalf("Call %d: %v", i, err)
		}
		if id == 0 {
			t.Fatalf("Call %d: id = 0 for a dropped oneway call, want the assigned id", i)
		}
	}
	if err := clock.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	const wantDrops = 4 // indices 0, 3, 6, 9
	st := bus.Stats()
	if st.InjectedDrops != wantDrops {
		t.Fatalf("InjectedDrops = %d, want %d", st.InjectedDrops, wantDrops)
	}
	if delivered != attempts-wantDrops {
		t.Fatalf("delivered = %d, want %d", delivered, attempts-wantDrops)
	}
	if uint64(delivered)+st.InjectedDrops+st.Unroutable != attempts {
		t.Fatalf("accounting broken: delivered %d + injected %d + unroutable %d != %d attempts",
			delivered, st.InjectedDrops, st.Unroutable, attempts)
	}
}

// TestDuplicateFaultDeliversTwice: a duplicated transaction reaches its
// handler and the observers twice with the same id, and is not counted as
// any kind of drop.
func TestDuplicateFaultDeliversTwice(t *testing.T) {
	bus, clock := newTestBus(t, nil)
	var ids []uint64
	if err := bus.Register(SystemServer, func(tx Transaction) { ids = append(ids, tx.ID) }); err != nil {
		t.Fatalf("Register: %v", err)
	}
	txs := recordTxs(bus)
	bus.SetFaultInjector(&scriptedInjector{decide: func(i int, _ string) TxFault {
		return TxFault{Duplicate: i == 1}
	}})
	for i := 0; i < 3; i++ {
		if _, err := bus.Call("app", SystemServer, "m", i); err != nil {
			t.Fatalf("Call %d: %v", i, err)
		}
	}
	if err := clock.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(ids) != 4 {
		t.Fatalf("delivered %d transactions, want 4 (3 calls + 1 duplicate)", len(ids))
	}
	dupSeen := 0
	for _, id := range ids {
		if id == 2 {
			dupSeen++
		}
	}
	if dupSeen != 2 {
		t.Fatalf("duplicated id 2 delivered %d times, want 2", dupSeen)
	}
	if got := len(*txs); got != 4 {
		t.Fatalf("observer saw %d transactions, want 4", got)
	}
	if got := bus.Stats(); got != (Stats{Calls: 3, Duplicated: 1, Delivered: 4}) {
		t.Fatalf("Stats = %+v, want 3 calls, 1 duplicate, 4 deliveries, no drops", got)
	}
}

// TestDelayFaultKeepsStreamFIFO: reorder pressure (a large injected delay on
// one call) must not reorder the same (from,to,method) stream, and delayed
// deliveries still satisfy DeliveredAt >= SentAt.
func TestDelayFaultKeepsStreamFIFO(t *testing.T) {
	latency := func(_, _ ProcessID, _ string) simrand.Dist { return simrand.Constant(2) }
	bus, clock := newTestBus(t, latency)
	var seen []int
	if err := bus.Register(SystemServer, func(tx Transaction) {
		if tx.DeliveredAt < tx.SentAt {
			t.Errorf("tx %d delivered at %v before sent at %v", tx.ID, tx.DeliveredAt, tx.SentAt)
		}
		seen = append(seen, tx.Payload.(int))
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	bus.SetFaultInjector(&scriptedInjector{decide: func(i int, _ string) TxFault {
		if i == 0 {
			return TxFault{Delay: 500 * time.Millisecond}
		}
		return TxFault{}
	}})
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := bus.Call("app", SystemServer, "addView", i); err != nil {
			t.Fatalf("Call: %v", err)
		}
	}
	if err := clock.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(seen) != n {
		t.Fatalf("delivered %d, want %d", len(seen), n)
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("stream reordered at %d: got %d (delay fault broke per-stream FIFO)", i, v)
		}
	}
}

// TestStatsIdentityUnderFaults: with faults thinning and duplicating the
// stream and some calls unroutable, every Stats field matches an
// independent count, and Calls + Duplicated == Delivered + InFlight +
// InjectedDrops + Unroutable holds at every delivery and when the clock
// stops with deliveries still in flight.
func TestStatsIdentityUnderFaults(t *testing.T) {
	latency := func(_, _ ProcessID, _ string) simrand.Dist { return simrand.Constant(5) }
	bus, clock := newTestBus(t, latency)
	if err := bus.Register(SystemServer, func(Transaction) {}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	deliveries := uint64(0)
	bus.Observe(func(Transaction) {
		deliveries++
		if st := bus.Stats(); !st.Balanced() || st.Delivered != deliveries {
			t.Errorf("at delivery %d: Stats = %+v", deliveries, st)
		}
	})
	bus.SetFaultInjector(&scriptedInjector{decide: func(i int, _ string) TxFault {
		switch i % 5 {
		case 0:
			return TxFault{Drop: true}
		case 1:
			return TxFault{Duplicate: true}
		default:
			return TxFault{}
		}
	}})
	// One routable call per millisecond and one unroutable call every
	// tenth; the clock stops just after the 50 ms send, with the calls of
	// the last 5 ms still in flight.
	const attempts = 100
	for i := 0; i < attempts; i++ {
		clock.MustAfter(time.Duration(i)*time.Millisecond, "send", func() {
			if _, err := bus.Call("a", SystemServer, "m", i); err != nil {
				t.Errorf("Call: %v", err)
			}
			if i%10 == 0 {
				if _, err := bus.Call("a", "nobody", "m", i); err == nil {
					t.Error("call to unregistered process succeeded")
				}
			}
		})
	}
	clock.MustAfter(50*time.Millisecond+500*time.Microsecond, "stop", clock.Stop)
	if err := clock.Run(); err != simclock.ErrStopped {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	// Calls 0..50 were sent: 11 dropped (i%5 == 0), 10 duplicated
	// (i%5 == 1). Calls 0..45 have been delivered: 46 - 10 dropped + 9
	// duplicates. Calls 46 (twice), 47, 48 and 49 are in flight.
	st := bus.Stats()
	want := Stats{Calls: 51 + 6, Duplicated: 10, Delivered: 45, InFlight: 5, InjectedDrops: 11, Unroutable: 6}
	if st != want {
		t.Fatalf("Stats = %+v, want %+v", st, want)
	}
	if !st.Balanced() || st.InFlight == 0 {
		t.Fatalf("Stats = %+v: want a balanced identity with deliveries in flight", st)
	}
	if deliveries != st.Delivered {
		t.Fatalf("observer counted %d deliveries, Stats %d", deliveries, st.Delivered)
	}
}

// TestNilInjectorIsNoOp: clearing the injector restores untouched delivery.
func TestNilInjectorIsNoOp(t *testing.T) {
	bus, clock := newTestBus(t, nil)
	delivered := 0
	if err := bus.Register(SystemServer, func(Transaction) { delivered++ }); err != nil {
		t.Fatalf("Register: %v", err)
	}
	bus.SetFaultInjector(&scriptedInjector{decide: func(int, string) TxFault { return TxFault{Drop: true} }})
	bus.SetFaultInjector(nil)
	for i := 0; i < 5; i++ {
		if _, err := bus.Call("a", SystemServer, "m", i); err != nil {
			t.Fatalf("Call: %v", err)
		}
	}
	if err := clock.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st := bus.Stats(); delivered != 5 || st.InjectedDrops != 0 {
		t.Fatalf("delivered %d (want 5), InjectedDrops %d (want 0)", delivered, st.InjectedDrops)
	}
}

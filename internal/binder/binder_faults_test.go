package binder

import (
	"testing"
	"testing/quick"
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

// TestPropertyFaultedStreamsDeliverWhatWasSent interleaves calls on eight
// streams (two callers, two callees, two methods) with clock steps, under
// random latencies, injected delays, duplicates and drops. Every
// delivered transaction must equal the one sent (ID, payload, SentAt),
// each stream must deliver its calls in send order with a duplicate right
// after its original, the handler and the observers must see the same
// transactions, and Stats must balance at every delivery and end with
// nothing in flight.
func TestPropertyFaultedStreamsDeliverWhatWasSent(t *testing.T) {
	// Bits of op: 0-2 the stream, 3 duplicate, 4 drop (when 3-4 are both
	// set, neither), 8-9 an injected delay of 0, 1, 3 or 20 ms, 10-11 how
	// many clock steps follow the call. Each stream's latency is a
	// high-variance normal with its own mean, sampled per call.
	prop := func(ops []uint16) bool {
		clock := simclock.New()
		bus, err := NewBus(Config{Clock: clock, RNG: simrand.New(1)})
		if err != nil {
			return false
		}
		type key struct {
			from, to ProcessID
			method   string
		}
		want := map[key][]Transaction{}
		handled := map[key][]Transaction{}
		observed := map[key][]Transaction{}
		ok := true
		for _, to := range []ProcessID{SystemServer, SystemUI} {
			if err := bus.Register(to, func(tx Transaction) {
				k := key{tx.From, tx.To, tx.Method}
				handled[k] = append(handled[k], tx)
			}); err != nil {
				return false
			}
		}
		bus.Observe(func(tx Transaction) {
			k := key{tx.From, tx.To, tx.Method}
			observed[k] = append(observed[k], tx)
			ok = ok && bus.Stats().Balanced() && tx.DeliveredAt >= tx.SentAt
		})
		var op uint16
		bus.latency = func(from, to ProcessID, method string) simrand.Dist {
			mean := (len(from) + len(to) + len(method)) % 7
			return simrand.NormalDist(float64(mean), 4)
		}
		bus.SetFaultInjector(&scriptedInjector{decide: func(int, string) TxFault {
			dup, drop := op&8 != 0, op&16 != 0
			return TxFault{
				Duplicate: dup && !drop,
				Drop:      drop && !dup,
				Delay:     []time.Duration{0, time.Millisecond, 3 * time.Millisecond, 20 * time.Millisecond}[op>>8&3],
			}
		}})
		for i, o := range ops {
			op = o
			k := key{[]ProcessID{"a", "b"}[o&1], []ProcessID{SystemServer, SystemUI}[o>>1&1], []string{"addView", "removeView"}[o>>2&1]}
			id, err := bus.Call(k.from, k.to, k.method, i)
			if err != nil {
				return false
			}
			sent := Transaction{ID: id, From: k.from, To: k.to, Method: k.method, Payload: i, SentAt: clock.Now()}
			if o&16 == 0 || o&8 != 0 { // not dropped
				want[k] = append(want[k], sent)
				if o&8 != 0 && o&16 == 0 {
					want[k] = append(want[k], sent)
				}
			}
			for s := 0; s < int(o>>10&3); s++ {
				clock.Step()
			}
		}
		if err := clock.Run(); err != nil || !ok {
			return false
		}
		st := bus.Stats()
		if !st.Balanced() || st.InFlight != 0 || st.Calls != uint64(len(ops)) {
			return false
		}
		for _, got := range []map[key][]Transaction{handled, observed} {
			if len(got) > len(want) {
				return false
			}
			for k, txs := range want {
				if len(got[k]) != len(txs) {
					return false
				}
				for i, tx := range got[k] {
					tx.DeliveredAt = 0
					if tx != txs[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

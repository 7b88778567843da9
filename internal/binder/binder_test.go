package binder

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simclock"
	"repro/internal/simrand"
)

func newTestBus(t *testing.T, latency LatencyFunc) (*Bus, *simclock.Clock) {
	t.Helper()
	clock := simclock.New()
	bus, err := NewBus(Config{Clock: clock, RNG: simrand.New(1), Latency: latency})
	if err != nil {
		t.Fatalf("NewBus: %v", err)
	}
	return bus, clock
}

// recordTxs collects every transaction the bus delivers, in delivery
// order, through an observer.
func recordTxs(bus *Bus) *[]Transaction {
	var txs []Transaction
	bus.Observe(func(tx Transaction) { txs = append(txs, tx) })
	return &txs
}

func TestNewBusValidation(t *testing.T) {
	if _, err := NewBus(Config{RNG: simrand.New(1)}); err == nil {
		t.Fatal("nil clock accepted")
	}
	if _, err := NewBus(Config{Clock: simclock.New()}); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestRegisterValidation(t *testing.T) {
	bus, _ := newTestBus(t, nil)
	if err := bus.Register("", func(Transaction) {}); err == nil {
		t.Fatal("empty id accepted")
	}
	if err := bus.Register("p", nil); err == nil {
		t.Fatal("nil handler accepted")
	}
	if err := bus.Register("p", func(Transaction) {}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := bus.Register("p", func(Transaction) {}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestCallDeliversWithLatency(t *testing.T) {
	latency := func(from, to ProcessID, method string) simrand.Dist {
		return simrand.Constant(5)
	}
	bus, clock := newTestBus(t, latency)
	var got []Transaction
	if err := bus.Register(SystemServer, func(tx Transaction) { got = append(got, tx) }); err != nil {
		t.Fatalf("Register: %v", err)
	}
	id, err := bus.Call("app", SystemServer, "addView", 42)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if id == 0 {
		t.Fatal("transaction id = 0, want > 0")
	}
	if err := clock.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("delivered %d transactions, want 1", len(got))
	}
	tx := got[0]
	if tx.From != "app" || tx.To != SystemServer || tx.Method != "addView" {
		t.Fatalf("tx = %+v", tx)
	}
	if v, ok := tx.Payload.(int); !ok || v != 42 {
		t.Fatalf("payload = %v", tx.Payload)
	}
	if tx.SentAt != 0 || tx.DeliveredAt != 5*time.Millisecond {
		t.Fatalf("timestamps = (%v,%v), want (0,5ms)", tx.SentAt, tx.DeliveredAt)
	}
}

func TestCallUnregisteredFails(t *testing.T) {
	bus, _ := newTestBus(t, nil)
	if _, err := bus.Call("app", "nobody", "m", nil); err == nil {
		t.Fatal("call to unregistered process succeeded")
	}
	if got := bus.Stats(); got != (Stats{Calls: 1, Unroutable: 1}) {
		t.Fatalf("Stats = %+v, want one unroutable call", got)
	}
}

// TestCrossMethodOvertaking reproduces the paper's key Binder observation:
// removeView sent at t=0 with latency Trm=8ms is overtaken by addView sent
// at t=1ms with latency Tam=3ms.
func TestCrossMethodOvertaking(t *testing.T) {
	latency := func(_, _ ProcessID, method string) simrand.Dist {
		switch method {
		case "removeView":
			return simrand.Constant(8)
		case "addView":
			return simrand.Constant(3)
		default:
			return simrand.Dist{}
		}
	}
	bus, clock := newTestBus(t, latency)
	var order []string
	if err := bus.Register(SystemServer, func(tx Transaction) { order = append(order, tx.Method) }); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := bus.Call("app", SystemServer, "removeView", nil); err != nil {
		t.Fatalf("Call remove: %v", err)
	}
	clock.MustAfter(time.Millisecond, "send-add", func() {
		if _, err := bus.Call("app", SystemServer, "addView", nil); err != nil {
			t.Errorf("Call add: %v", err)
		}
	})
	if err := clock.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 2 || order[0] != "addView" || order[1] != "removeView" {
		t.Fatalf("delivery order = %v, want [addView removeView]", order)
	}
}

// TestSameStreamFIFO checks that two calls on the same method stream never
// reorder even when the second samples a smaller latency.
func TestSameStreamFIFO(t *testing.T) {
	// High-variance latency to provoke reordering attempts.
	latency := func(_, _ ProcessID, _ string) simrand.Dist {
		return simrand.NormalDist(5, 4)
	}
	bus, clock := newTestBus(t, latency)
	var seen []int
	if err := bus.Register(SystemServer, func(tx Transaction) {
		if v, ok := tx.Payload.(int); ok {
			seen = append(seen, v)
		}
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	const n = 200
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
			t.Fatalf("stream reordered at %d: got %d", i, v)
		}
	}
}

func TestObserverRecordsDeliveries(t *testing.T) {
	bus, clock := newTestBus(t, nil)
	if err := bus.Register(SystemServer, func(Transaction) {}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	txs := recordTxs(bus)
	for i := 0; i < 5; i++ {
		if _, err := bus.Call("app", SystemServer, "m", i); err != nil {
			t.Fatalf("Call: %v", err)
		}
	}
	if err := clock.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	log := *txs
	if len(log) != 5 {
		t.Fatalf("observer recorded %d transactions, want 5", len(log))
	}
	for i := 1; i < len(log); i++ {
		if log[i].DeliveredAt < log[i-1].DeliveredAt {
			t.Fatal("transactions not in delivery order")
		}
		if log[i].ID <= log[i-1].ID {
			t.Fatal("transaction ids not increasing")
		}
	}
}

func TestObserverSeesAllDeliveries(t *testing.T) {
	bus, clock := newTestBus(t, nil)
	if err := bus.Register(SystemServer, func(Transaction) {}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	count := 0
	bus.Observe(func(Transaction) { count++ })
	bus.Observe(nil) // must be ignored
	for i := 0; i < 7; i++ {
		if _, err := bus.Call("a", SystemServer, "m", nil); err != nil {
			t.Fatalf("Call: %v", err)
		}
	}
	if err := clock.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 7 {
		t.Fatalf("observer saw %d deliveries, want 7", count)
	}
}

// Property: for any latency means, per-stream delivery order matches send
// order and timestamps are consistent (DeliveredAt >= SentAt).
func TestPropertyStreamOrderAndTimestamps(t *testing.T) {
	prop := func(seed int64, meansRaw []uint8) bool {
		clock := simclock.New()
		bus, err := NewBus(Config{Clock: clock, RNG: simrand.New(seed)})
		if err != nil {
			return false
		}
		var seen []Transaction
		if err := bus.Register(SystemServer, func(tx Transaction) { seen = append(seen, tx) }); err != nil {
			return false
		}
		bus.latency = func(_, _ ProcessID, _ string) simrand.Dist {
			return simrand.NormalDist(10, 8)
		}
		n := len(meansRaw)
		if n > 50 {
			n = 50
		}
		for i := 0; i < n; i++ {
			if _, err := bus.Call("a", SystemServer, "m", i); err != nil {
				return false
			}
		}
		if err := clock.Run(); err != nil {
			return false
		}
		if len(seen) != n {
			return false
		}
		for i, tx := range seen {
			if v, ok := tx.Payload.(int); !ok || v != i {
				return false
			}
			if tx.DeliveredAt < tx.SentAt {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCallAllocBudget: one Call plus its delivery allocates the delivery
// closure and its clock event, nothing more — the transaction rides in
// the closure by value. Allocation counts do not drift with host speed.
func TestCallAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	bus, clock := newTestBus(t, nil)
	if err := bus.Register(SystemServer, func(Transaction) {}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := bus.Call("app", SystemServer, "m", nil); err != nil {
			t.Fatalf("Call: %v", err)
		}
		clock.Step()
	})
	if allocs > 2 {
		t.Fatalf("Call + delivery allocates %.1f times, budget 2", allocs)
	}
}

package sentry

import (
	"hash/fnv"
	"reflect"
	"testing"
	"time"
)

// overlayPairs builds n add/remove pairs for dev: the overlay is held
// for hold, then re-drawn gap after the remove. Sequence numbers are
// assigned in stream order.
func overlayPairs(dev string, n int, hold, gap time.Duration) []Record {
	var recs []Record
	var t time.Duration
	for i := 0; i < n; i++ {
		recs = append(recs,
			Record{Device: dev, Method: MethodAddView, At: t},
			Record{Device: dev, Method: MethodRemoveView, At: t + hold},
		)
		t += hold + gap
	}
	for i := range recs {
		recs[i].Seq = uint64(i)
	}
	return recs
}

func notes(dev string, n int, period time.Duration) []Record {
	var recs []Record
	for i := 0; i < n; i++ {
		recs = append(recs, Record{Device: dev, Seq: uint64(i), Method: MethodEnqueueNotification, At: time.Duration(i) * period})
	}
	return recs
}

func mustEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineDetectsDrawAndDestroy(t *testing.T) {
	e := mustEngine(t, Config{})
	// 100ms holds with 5ms re-draw gaps: the remove→add gap is the swap
	// signature; five pairs give 10 calls ≥ MinCalls and 4 swaps ≥ MinSwaps.
	recs := overlayPairs("attacker", 5, 100*time.Millisecond, 5*time.Millisecond)
	if n, err := e.Ingest("attacker", recs); err != nil || n != len(recs) {
		t.Fatalf("Ingest = %d, %v", n, err)
	}
	if !e.Detected("attacker") {
		t.Fatal("draw-and-destroy cadence not detected")
	}
	snap := e.Snapshot()
	if snap.Detected != 1 || len(snap.Detections) != 1 {
		t.Fatalf("snapshot: %+v", snap)
	}
	d := snap.Detections[0]
	if d.Pattern != PatternDrawAndDestroy || d.Device != "attacker" {
		t.Fatalf("detection: %+v", d)
	}
	if d.Swaps < 4 || d.Calls < 8 {
		t.Fatalf("detection under thresholds: %+v", d)
	}
	if d.MeanSwapGap != 5*time.Millisecond {
		t.Fatalf("mean swap gap %v, want 5ms", d.MeanSwapGap)
	}
}

func TestEngineBenignStaysClean(t *testing.T) {
	e := mustEngine(t, Config{})
	// The §VII-A benign scenario: seconds-long widget holds. Call count
	// never reaches MinCalls within one window and no gap is swap-scale.
	if _, err := e.Ingest("widget", overlayPairs("widget", 6, 4*time.Second, 3*time.Second)); err != nil {
		t.Fatal(err)
	}
	// Adversarially benign: fast toggles that cross MinCalls in a window
	// but with every gap 5× MaxSwapGap.
	if _, err := e.Ingest("chatty", overlayPairs("chatty", 12, 250*time.Millisecond, 250*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	if snap.Detected != 0 || snap.Clean != 2 {
		t.Fatalf("benign devices flagged: %+v", snap)
	}
}

func TestEngineNotifyFlood(t *testing.T) {
	e := mustEngine(t, Config{})
	// 30 notifications in 1.5s — well inside one 3s window.
	if _, err := e.Ingest("flooder", notes("flooder", 30, 50*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	if snap.Detected != 1 || snap.Detections[0].Pattern != PatternNotifyFlood {
		t.Fatalf("notify flood not flagged: %+v", snap)
	}
	// A slow trickle spanning many windows stays clean.
	if _, err := e.Ingest("slow", notes("slow", 40, 500*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if e.Detected("slow") {
		t.Fatal("slow notification trickle flagged")
	}

	// NotifFlood < 0 disables the rule entirely.
	off := mustEngine(t, Config{NotifFlood: -1})
	if _, err := off.Ingest("flooder", notes("flooder", 200, 10*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if off.Detected("flooder") {
		t.Fatal("notify-flood rule fired while disabled")
	}
}

func TestEngineSequenceContract(t *testing.T) {
	e := mustEngine(t, Config{})
	recs := overlayPairs("dev", 2, time.Second, time.Second)
	if _, err := e.Ingest("dev", recs); err != nil {
		t.Fatal(err)
	}
	// Replaying the same sequence range is rejected at the first record.
	if n, err := e.Ingest("dev", recs); err == nil || n != 0 {
		t.Fatalf("replayed batch: applied %d, err %v", n, err)
	}
	// A gap is fine (a shed batch legitimately skips its range)…
	later := []Record{{Device: "dev", Seq: 100, Method: MethodAddView, At: 10 * time.Second}}
	if _, err := e.Ingest("dev", later); err != nil {
		t.Fatalf("gapped seq rejected: %v", err)
	}
	// …and a violation mid-batch applies the valid prefix.
	mixed := []Record{
		{Device: "dev", Seq: 101, Method: MethodRemoveView, At: 11 * time.Second},
		{Device: "dev", Seq: 101, Method: MethodAddView, At: 12 * time.Second},
	}
	if n, err := e.Ingest("dev", mixed); err == nil || n != 1 {
		t.Fatalf("mid-batch violation: applied %d, err %v", n, err)
	}
	// A record carrying another device's ID never lands in this stream.
	alien := []Record{{Device: "other", Seq: 200, Method: MethodAddView, At: 0}}
	if n, err := e.Ingest("dev", alien); err == nil || n != 0 {
		t.Fatalf("cross-device record: applied %d, err %v", n, err)
	}
}

func TestEngineAccountingPrecedence(t *testing.T) {
	e := mustEngine(t, Config{})
	// detected > shed: a flagged device stays detected even after sheds.
	if _, err := e.Ingest("caught", overlayPairs("caught", 5, 100*time.Millisecond, 5*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	e.MarkShed("caught")
	// shed > clean: an unflagged device with a shed batch is not clean.
	e.MarkShed("lossy")
	// clean: reported, nothing shed, nothing detected.
	if _, err := e.Ingest("calm", overlayPairs("calm", 1, time.Second, 0)); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	if snap.Detected != 1 || snap.Shed != 1 || snap.Clean != 1 {
		t.Fatalf("precedence broken: %+v", snap)
	}
	if snap.Detected+snap.Clean+snap.Shed != snap.DevicesReported {
		t.Fatalf("accounting identity broken: %+v", snap)
	}
}

// TestEngineShardInvariance is the tentpole determinism claim at the
// engine level: the shard count picks a lock, never a result.
func TestEngineShardInvariance(t *testing.T) {
	fl, err := GenerateFleet(FleetConfig{Devices: 120, Attackers: 6, NotifAbusers: 3, Span: 6 * time.Second, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var snaps []Snapshot
	for _, shards := range []int{1, 4, 16} {
		e := mustEngine(t, Config{Shards: shards})
		for _, d := range fl.Devices {
			if _, err := e.Ingest(d.ID, d.Records); err != nil {
				t.Fatalf("shards=%d %s: %v", shards, d.ID, err)
			}
		}
		snaps = append(snaps, e.Snapshot())
	}
	for i := 1; i < len(snaps); i++ {
		if !reflect.DeepEqual(snaps[0], snaps[i]) {
			t.Fatalf("snapshot differs between shard counts:\n%+v\nvs\n%+v", snaps[0], snaps[i])
		}
	}
}

// TestEngineBoundedMemoryUnderFlood floods one device far past RingCap
// inside a single window: per-device state must stay O(window) — ring
// capped, sketch capped — while the sketch keeps the call-rate estimate
// high enough that the flood is still detected.
func TestEngineBoundedMemoryUnderFlood(t *testing.T) {
	e := mustEngine(t, Config{})
	const n = 10000
	recs := make([]Record, n)
	for i := range recs {
		m := MethodAddView
		if i%2 == 1 {
			m = MethodRemoveView
		}
		// 50k records/s: the whole flood fits inside one 3s window.
		recs[i] = Record{Device: "flood", Seq: uint64(i), Method: m, At: time.Duration(i) * 20 * time.Microsecond}
	}
	if _, err := e.Ingest("flood", recs); err != nil {
		t.Fatal(err)
	}
	if !e.Detected("flood") {
		t.Fatal("overlay flood not detected")
	}
	if ev := e.ringEvictions.Load(); ev == 0 {
		t.Fatal("flood past RingCap caused no ring evictions")
	}
	sh := e.shardFor("flood")
	sh.mu.Lock()
	st := sh.devices["flood"]
	ring, buckets := len(st.ring), len(st.buckets)
	sh.mu.Unlock()
	if ring > e.cfg.RingCap {
		t.Fatalf("ring grew to %d, cap %d", ring, e.cfg.RingCap)
	}
	if buckets > e.cfg.SketchBuckets+1 {
		t.Fatalf("sketch grew to %d buckets, want ≤ %d", buckets, e.cfg.SketchBuckets+1)
	}
}

func TestEngineConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Shards: -1},
		{Window: -time.Second},
		{MinCalls: 1},
		{MaxSwapGap: -time.Millisecond},
		{MinSwaps: -2},
		{RingCap: 4},
		{SketchBuckets: 1},
	} {
		if _, err := NewEngine(cfg); err == nil {
			t.Errorf("NewEngine(%+v) accepted an invalid config", cfg)
		}
	}
	e := mustEngine(t, Config{})
	cfg := e.Config()
	if cfg.Shards != 8 || cfg.Window != 3*time.Second || cfg.MinCalls != 8 ||
		cfg.MaxSwapGap != 50*time.Millisecond || cfg.MinSwaps != 4 ||
		cfg.NotifFlood != 30 || cfg.RingCap != 128 || cfg.SketchBuckets != 16 {
		t.Fatalf("defaults drifted: %+v", cfg)
	}
}

// TestShardHashMatchesFNV pins the inline shard hash to hash/fnv's
// 32-bit FNV-1a over a table of device tokens, so serving shard placement
// is what it was when the engine hashed through hash/fnv, and checks that
// shardFor places each token by that hash.
func TestShardHashMatchesFNV(t *testing.T) {
	tokens := []string{
		"", "a", "dev", "flood", "device-0", "device-1", "device-17",
		"dev.000042", "fleet_attacker-7", "com.evil.app", "com.android.systemui",
		"ZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZ",
		"\x00\xff\x80 bytes past ASCII",
	}
	e, err := NewEngine(Config{Shards: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range tokens {
		h := fnv.New32a()
		_, _ = h.Write([]byte(tok))
		want := h.Sum32()
		if got := fnv32a(tok); got != want {
			t.Errorf("fnv32a(%q) = %#x, hash/fnv = %#x", tok, got, want)
		}
		if got, want := e.shardFor(tok), e.shards[want%7]; got != want {
			t.Errorf("shardFor(%q) is not shard fnv%%7", tok)
		}
	}
}

// Package sentry is the streaming fleet-scale detection service and the
// one home of the paper's §VII-A draw-and-destroy rule: a long-running
// service that watches binder addView/removeView transaction streams
// from thousands of devices at once, plus the notification-abuse
// extension motivated by Knock-Knock (PAPERS.md). The simulator runs
// this engine too: internal/defense.IPCDetector feeds each app's
// overlay deliveries to an Engine as one device's stream.
//
// The package has four layers:
//
//  1. a wire codec (wire.go) for device-stream transaction records,
//     strict enough that decode→encode is byte-exact on valid input,
//  2. the Engine (this file): per-device state in sharded sliding
//     windows — shard by device ID, one lock per shard — feeding the
//     §VII-A decision rule, with a bounded-memory time-bucketed
//     frequency sketch so per-device memory stays O(window) even when
//     an attacker floods the stream,
//  3. an HTTP server (server.go) reusing vetd's admission design: a
//     bounded in-flight gate with explicit 429 shedding, exclusive
//     device accounting (detected+clean+shed == devices_reported),
//     Prometheus /metrics and the /healthz–/readyz liveness/readiness
//     split,
//  4. a seeded fleet generator and conformance scorer (fleet.go,
//     report.go): because attacker devices are planted by the
//     generator, every replay (internal/load.ReplayFleet) doubles as a
//     labeled corpus and scores precision/recall against ground truth.
//
// sentry is a wall-clock serving package (simlint's ServingPackages
// allowlist), but every *detection decision* is a pure function of the
// device's own record stream — record timestamps are virtual, sharding
// only picks a lock — so a fleet replay renders byte-identically at any
// shard count and any client concurrency.
package sentry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes the Engine. The zero value selects the documented
// defaults, which are also the simulator's: defense.IPCDetector runs an
// engine on them with only the notification rule turned off.
type Config struct {
	// Shards is the device-state shard count; each shard holds a map of
	// device states behind its own mutex (default 8). The shard count
	// affects lock contention only, never detection results.
	Shards int
	// Window is the sliding observation window (default 3s).
	Window time.Duration
	// MinCalls is the minimum addView+removeView count within the
	// window for a device to be suspicious (default 8).
	MinCalls int
	// MaxSwapGap is the maximum gap between adjacent add/remove records
	// (either order) for the pair to count as a draw-and-destroy swap
	// (default 50ms).
	MaxSwapGap time.Duration
	// MinSwaps is the minimum qualifying swap count within the window
	// (default 4).
	MinSwaps int
	// NotifFlood is the enqueueNotification count within the window
	// that flags a notification-abuse device (default 30; negative
	// disables the rule).
	NotifFlood int
	// RingCap bounds the per-device ring of recent overlay records used
	// for swap detection (default 128). Under flood the ring evicts its
	// oldest entries — counted, never grown — while the sketch keeps
	// the window's call-rate estimate intact.
	RingCap int
	// SketchBuckets is the number of time buckets the frequency sketch
	// divides the window into (default 16). More buckets sharpen the
	// window edge at a few bytes per device each.
	SketchBuckets int
}

func (c Config) withDefaults() (Config, error) {
	if c.Shards == 0 {
		c.Shards = 8
	}
	if c.Shards < 1 {
		return c, fmt.Errorf("sentry: shard count %d < 1", c.Shards)
	}
	if c.Window == 0 {
		c.Window = 3 * time.Second
	}
	if c.Window < 0 {
		return c, fmt.Errorf("sentry: negative window %v", c.Window)
	}
	if c.MinCalls == 0 {
		c.MinCalls = 8
	}
	if c.MinCalls < 2 {
		return c, fmt.Errorf("sentry: MinCalls %d too small", c.MinCalls)
	}
	if c.MaxSwapGap == 0 {
		c.MaxSwapGap = 50 * time.Millisecond
	}
	if c.MaxSwapGap < 0 {
		return c, fmt.Errorf("sentry: negative MaxSwapGap %v", c.MaxSwapGap)
	}
	if c.MinSwaps == 0 {
		c.MinSwaps = 4
	}
	if c.MinSwaps < 1 {
		return c, fmt.Errorf("sentry: MinSwaps %d too small", c.MinSwaps)
	}
	if c.NotifFlood == 0 {
		c.NotifFlood = 30
	}
	if c.RingCap == 0 {
		c.RingCap = 128
	}
	if c.RingCap < 8 {
		return c, fmt.Errorf("sentry: RingCap %d too small", c.RingCap)
	}
	if c.SketchBuckets == 0 {
		c.SketchBuckets = 16
	}
	if c.SketchBuckets < 2 {
		return c, fmt.Errorf("sentry: SketchBuckets %d too small", c.SketchBuckets)
	}
	return c, nil
}

// Detection patterns.
const (
	PatternDrawAndDestroy = "draw-and-destroy"
	PatternNotifyFlood    = "notify-flood"
)

// Detection is one positive per-device finding. A device is flagged at
// most once; the first rule to fire wins.
type Detection struct {
	// Device is the flagged device.
	Device string `json:"device"`
	// Pattern names the rule that fired.
	Pattern string `json:"pattern"`
	// At is the virtual stream timestamp of the triggering record.
	At time.Duration `json:"at_ns"`
	// Calls is the window's call-count estimate at detection: overlay
	// calls for draw-and-destroy, notifications for notify-flood.
	Calls int `json:"calls"`
	// Swaps and MeanSwapGap describe the qualifying swap pairs
	// (draw-and-destroy only).
	Swaps       int           `json:"swaps"`
	MeanSwapGap time.Duration `json:"mean_swap_gap_ns"`
	// ConfigVersion is the rule-set version active when the detection
	// fired (see ApplyConfig); 1 is the construction configuration.
	ConfigVersion uint64 `json:"config_version"`
}

// Journal receives every detection the instant it fires, before the
// ingest that triggered it returns — the crash-safety seam sentryd
// wires to a sentrystore.Store. Append is called under the flagged
// device's shard lock, so implementations must not call back into the
// engine; an error is counted (JournalErrors) but never blocks the
// detection itself.
type Journal interface {
	Append(d Detection) error
}

// rules is the swappable detection rule set; see config.go for the
// versioning discipline. bucketDur is derived (window/sketchBuckets)
// and cached because every bump consults it.
type rules struct {
	version       uint64
	window        time.Duration
	minCalls      int
	maxSwapGap    time.Duration
	minSwaps      int
	notifFlood    int
	sketchBuckets int
	bucketDur     time.Duration
}

// overlayRec is one add/remove record in a device's ring.
type overlayRec struct {
	add bool
	at  time.Duration
}

// bucket is one time slice of the per-device frequency sketch: counts
// of each method class whose records landed in [idx·w, (idx+1)·w).
type bucket struct {
	idx             int64
	overlays, notes uint32
}

// deviceState is everything the engine keeps per device. Memory is
// O(RingCap + SketchBuckets) regardless of stream rate: the ring holds
// at most RingCap recent overlay records and the sketch at most
// SketchBuckets+1 counters. recs/ign/evict are the device's slice of
// the engine-wide counters — the per-device accounting rows a ring
// router needs to merge N replicated nodes into one exact fleet report.
type deviceState struct {
	lastSeq   uint64
	hasSeq    bool
	shed      bool
	detection *Detection
	ring      []overlayRec
	buckets   []bucket
	// bdur is the bucket duration the sketch was built under; when a
	// config swap changes it, the buckets are remapped in place so the
	// window estimate survives the swap (no lost accounting).
	bdur time.Duration

	recs, ign, evict uint64
}

// shard is one lock's worth of device states.
type shard struct {
	mu      sync.Mutex
	devices map[string]*deviceState
}

// Engine is the streaming detector. All methods are safe for
// concurrent use; per-device work serializes on the device's shard.
type Engine struct {
	cfg    Config
	shards []*shard

	// rules is the live (versioned, atomically swappable) rule set;
	// configMu serializes swaps, never ingest.
	rules    atomic.Pointer[rules]
	configMu sync.Mutex

	// journal, when set (SetJournal, before serving), receives every
	// detection as it fires.
	journal Journal

	records       atomic.Uint64 // records ingested (all methods)
	ignored       atomic.Uint64 // records with methods no rule consumes
	ringEvictions atomic.Uint64 // overlay records evicted by RingCap pressure
	detections    atomic.Uint64 // devices flagged
	journalErrs   atomic.Uint64 // journal appends that failed
}

// NewEngine validates the configuration and builds an engine.
func NewEngine(cfg Config) (*Engine, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:    cfg,
		shards: make([]*shard, cfg.Shards),
	}
	initial := &rules{
		version:       1,
		window:        cfg.Window,
		minCalls:      cfg.MinCalls,
		maxSwapGap:    cfg.MaxSwapGap,
		minSwaps:      cfg.MinSwaps,
		notifFlood:    cfg.NotifFlood,
		sketchBuckets: cfg.SketchBuckets,
		bucketDur:     cfg.Window / time.Duration(cfg.SketchBuckets),
	}
	if initial.bucketDur <= 0 {
		initial.bucketDur = 1
	}
	e.rules.Store(initial)
	for i := range e.shards {
		e.shards[i] = &shard{devices: make(map[string]*deviceState)}
	}
	return e, nil
}

// Config returns the engine's effective configuration: the static
// construction fields plus the currently active rule set.
func (e *Engine) Config() Config {
	cfg := e.cfg
	ru := e.rules.Load()
	cfg.Window = ru.window
	cfg.MinCalls = ru.minCalls
	cfg.MaxSwapGap = ru.maxSwapGap
	cfg.MinSwaps = ru.minSwaps
	cfg.NotifFlood = ru.notifFlood
	cfg.SketchBuckets = ru.sketchBuckets
	return cfg
}

// SetJournal installs the detection journal. Call before the engine
// serves traffic; the pointer is read without synchronization on the
// ingest path.
func (e *Engine) SetJournal(j Journal) { e.journal = j }

// JournalErrors reports how many journal appends failed.
func (e *Engine) JournalErrors() uint64 { return e.journalErrs.Load() }

// Restore preloads recovered detections — a crash-safe store's contents
// — into the engine, before it serves traffic. A restored device is
// accounted detected (it reports without ever re-streaming) and its
// sequence state is fresh, so the device's continuing stream is
// accepted from wherever it resumes. Restored detections are not
// re-journaled: the journal already holds them.
func (e *Engine) Restore(ds []Detection) error {
	for _, d := range ds {
		if !ValidToken(d.Device) {
			return fmt.Errorf("sentry: restore: bad device token %q", d.Device)
		}
		sh := e.shardFor(d.Device)
		sh.mu.Lock()
		st := sh.state(d.Device)
		if st.detection == nil {
			det := d
			st.detection = &det
			e.detections.Add(1)
		}
		sh.mu.Unlock()
	}
	return nil
}

// shardFor is the device's shard: the only one when there is one, else
// the 32-bit FNV-1a hash of the token modulo the shard count.
func (e *Engine) shardFor(device string) *shard {
	if len(e.shards) == 1 {
		return e.shards[0]
	}
	return e.shards[fnv32a(device)%uint32(len(e.shards))]
}

// fnv32a is the 32-bit FNV-1a hash of s, the value hash/fnv's New32a
// computes, taken over the string in place so routing a record allocates
// nothing.
func fnv32a(s string) uint32 {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

// state returns the device's state, creating it if absent. Callers hold
// the shard lock.
func (sh *shard) state(device string) *deviceState {
	st := sh.devices[device]
	if st == nil {
		st = &deviceState{}
		sh.devices[device] = st
	}
	return st
}

// Ingest feeds one device's batch of records through the detector. All
// records must carry the given device ID and strictly increasing
// sequence numbers continuing the device's stream; the first violation
// stops processing and returns the count of records already applied
// alongside the error. A batch for one device takes its shard lock
// once.
func (e *Engine) Ingest(device string, recs []Record) (int, error) {
	// One rule-set load per batch: a config swap racing the batch
	// applies to the whole batch or none of it.
	ru := e.rules.Load()
	sh := e.shardFor(device)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.state(device)
	for i, r := range recs {
		if r.Device != device {
			return i, fmt.Errorf("sentry: record %d is for device %q, batch is for %q", i, r.Device, device)
		}
		if st.hasSeq && r.Seq <= st.lastSeq {
			return i, fmt.Errorf("sentry: record %d seq %d not after device %q seq %d", i, r.Seq, device, st.lastSeq)
		}
		st.lastSeq, st.hasSeq = r.Seq, true
		e.records.Add(1)
		st.recs++
		e.observe(ru, st, r)
	}
	return len(recs), nil
}

// MarkShed records that a batch for the device was refused at
// admission: the device has reported (it counts toward
// devices_reported) but its stream is known-incomplete, so unless a
// detection already fired — or fires later on the records that did get
// through — the device is accounted shed rather than clean.
func (e *Engine) MarkShed(device string) {
	sh := e.shardFor(device)
	sh.mu.Lock()
	sh.state(device).shed = true
	sh.mu.Unlock()
}

// observe applies one record to the device's window state and runs the
// decision rules. Caller holds the shard lock.
func (e *Engine) observe(ru *rules, st *deviceState, r Record) {
	switch r.Method {
	case MethodAddView, MethodRemoveView:
		e.observeOverlay(ru, st, r)
	case MethodEnqueueNotification:
		e.bump(ru, st, r.At, false)
		e.evaluateNotify(ru, st, r.Device, r.At)
	default:
		e.ignored.Add(1)
		st.ign++
	}
}

func (e *Engine) observeOverlay(ru *rules, st *deviceState, r Record) {
	if len(st.ring) == e.cfg.RingCap {
		copy(st.ring, st.ring[1:])
		st.ring = st.ring[:len(st.ring)-1]
		e.ringEvictions.Add(1)
		st.evict++
	}
	st.ring = append(st.ring, overlayRec{add: r.Method == MethodAddView, at: r.At})
	// Trim ring entries older than the window (exact cutoff; the ring is
	// time-ordered because timestamps within a device stream are
	// non-decreasing in practice, and a decreasing timestamp simply
	// trims nothing).
	cutoff := r.At - ru.window
	i := 0
	for i < len(st.ring) && st.ring[i].at < cutoff {
		i++
	}
	if i > 0 {
		st.ring = append(st.ring[:0], st.ring[i:]...)
	}
	e.bump(ru, st, r.At, true)
	e.evaluateOverlay(ru, st, r.Device, r.At)
}

// rebucket remaps the device's sketch from its previous bucket duration
// to the rule set's current one — a config swap changed the window or
// the bucket count. Each old bucket's counts move to the new bucket
// covering its start instant; counts are merged, never dropped, so the
// window estimate is continuous across the swap (within one bucket of
// slack, the sketch's usual tolerance).
func rebucket(st *deviceState, newDur time.Duration) {
	if len(st.buckets) == 0 || st.bdur == newDur {
		return
	}
	out := st.buckets[:0]
	for _, b := range st.buckets {
		idx := b.idx * int64(st.bdur) / int64(newDur)
		if n := len(out); n > 0 && out[n-1].idx == idx {
			out[n-1].overlays += b.overlays
			out[n-1].notes += b.notes
		} else {
			out = append(out, bucket{idx: idx, overlays: b.overlays, notes: b.notes})
		}
	}
	st.buckets = out
}

// bump counts one record into the sketch bucket covering at, evicting
// buckets that slid out of the window.
func (e *Engine) bump(ru *rules, st *deviceState, at time.Duration, overlay bool) {
	if st.bdur != ru.bucketDur {
		rebucket(st, ru.bucketDur)
		st.bdur = ru.bucketDur
	}
	idx := int64(at / ru.bucketDur)
	live := idx - int64(ru.sketchBuckets) + 1
	// Evict dead buckets from the front (they are kept in ascending
	// index order).
	i := 0
	for i < len(st.buckets) && st.buckets[i].idx < live {
		i++
	}
	if i > 0 {
		st.buckets = append(st.buckets[:0], st.buckets[i:]...)
	}
	// Fast path: the record lands in the newest bucket or starts one.
	n := len(st.buckets)
	switch {
	case n > 0 && st.buckets[n-1].idx == idx:
		st.buckets[n-1].count(overlay)
	case n == 0 || st.buckets[n-1].idx < idx:
		st.buckets = append(st.buckets, bucket{idx: idx})
		st.buckets[n].count(overlay)
	default:
		// Out-of-order timestamp: find (or insert) its bucket.
		for j := range st.buckets {
			if st.buckets[j].idx == idx {
				st.buckets[j].count(overlay)
				return
			}
			if st.buckets[j].idx > idx {
				st.buckets = append(st.buckets, bucket{})
				copy(st.buckets[j+1:], st.buckets[j:])
				st.buckets[j] = bucket{idx: idx}
				st.buckets[j].count(overlay)
				return
			}
		}
	}
}

func (b *bucket) count(overlay bool) {
	if overlay {
		b.overlays++
	} else {
		b.notes++
	}
}

// windowCounts sums the sketch's live buckets. This is the
// bounded-memory call-rate estimate: exact while every record in the
// window also fits the bucket span, within one bucket's slack at the
// trailing edge otherwise.
func (st *deviceState) windowCounts() (overlays, notes int) {
	for _, b := range st.buckets {
		overlays += int(b.overlays)
		notes += int(b.notes)
	}
	return overlays, notes
}

// evaluateOverlay is the §VII-A decision rule on streaming state: flag
// the device when the window holds at least MinCalls overlay calls and
// at least MinSwaps adjacent add/remove pairs with MaxSwapGap-scale
// gaps. The window's call count is estimated by the sketch so a flood
// cannot cheat detection by overflowing the ring. The simulator runs
// this rule through defense.IPCDetector, so simulated trials and served
// fleets flag on one implementation.
func (e *Engine) evaluateOverlay(ru *rules, st *deviceState, device string, now time.Duration) {
	if st.detection != nil {
		return
	}
	calls, _ := st.windowCounts()
	if calls < ru.minCalls {
		return
	}
	swaps := 0
	var gapSum time.Duration
	for i := 0; i+1 < len(st.ring); i++ {
		next := st.ring[i+1]
		if st.ring[i].add == next.add {
			continue
		}
		if gap := next.at - st.ring[i].at; gap >= 0 && gap <= ru.maxSwapGap {
			swaps++
			gapSum += gap
		}
	}
	if swaps < ru.minSwaps {
		return
	}
	e.flag(st, Detection{
		Device:        device,
		Pattern:       PatternDrawAndDestroy,
		At:            now,
		Calls:         calls,
		Swaps:         swaps,
		MeanSwapGap:   gapSum / time.Duration(swaps),
		ConfigVersion: ru.version,
	})
}

// evaluateNotify is the Knock-Knock-motivated notification-abuse rule:
// a device enqueueing NotifFlood or more notifications within one
// window is flooding the shade.
func (e *Engine) evaluateNotify(ru *rules, st *deviceState, device string, now time.Duration) {
	if st.detection != nil || ru.notifFlood < 0 {
		return
	}
	_, notes := st.windowCounts()
	if notes < ru.notifFlood {
		return
	}
	e.flag(st, Detection{
		Device:        device,
		Pattern:       PatternNotifyFlood,
		At:            now,
		Calls:         notes,
		ConfigVersion: ru.version,
	})
}

// flag records the device's detection and journals it. Caller holds the
// shard lock; the journal sees the detection before the triggering
// ingest returns, so a node SIGKILLed right after the 200 still knows
// the device was flagged when it restarts.
func (e *Engine) flag(st *deviceState, d Detection) {
	st.detection = &d
	e.detections.Add(1)
	if e.journal != nil {
		if err := e.journal.Append(d); err != nil {
			e.journalErrs.Add(1)
		}
	}
}

// Snapshot is the engine's device-level accounting at one instant.
//
// Accounting contract (tested): every device that ever reached
// admission — whether its batches were processed or shed — appears in
// exactly one of Detected, Clean or Shed, so
//
//	Detected + Clean + Shed == DevicesReported
//
// holds exactly at every quiescent instant. Precedence is
// detected > shed > clean: a flagged device stays detected even if
// later batches shed (the attack was caught despite overload), and an
// unflagged device with any shed batch cannot be certified clean.
type Snapshot struct {
	Service         string `json:"service"`
	DevicesReported int    `json:"devices_reported"`
	Detected        int    `json:"detected"`
	Clean           int    `json:"clean"`
	Shed            int    `json:"shed"`

	RecordsIngested uint64 `json:"records_ingested"`
	RecordsIgnored  uint64 `json:"records_ignored"`
	RingEvictions   uint64 `json:"ring_evictions"`

	// Detections lists every flagged device, sorted by device ID so
	// repeated replays render identically.
	Detections []Detection `json:"detections"`

	// Devices lists every reported device's accounting row, sorted by
	// device ID. A ring router merges the rows of N replicated peers —
	// picking each device's canonical replica — into a fleet snapshot
	// whose totals still satisfy the exclusive-accounting identity.
	Devices []DeviceAccount `json:"devices,omitempty"`
}

// DeviceAccount is one device's slice of the accounting: its status
// bucket (exactly one of detected/shed/clean), its record counters and
// its detection, if any.
type DeviceAccount struct {
	Device    string     `json:"device"`
	Status    string     `json:"status"` // "detected" | "shed" | "clean"
	Records   uint64     `json:"records"`
	Ignored   uint64     `json:"ignored,omitempty"`
	Evictions uint64     `json:"evictions,omitempty"`
	Detection *Detection `json:"detection,omitempty"`
}

// Snapshot assembles the current accounting. Detection results depend
// only on per-device streams, so — given the same streams — a snapshot
// after a full replay is identical at any shard count.
func (e *Engine) Snapshot() Snapshot {
	records, ignored, evictions := e.records.Load(), e.ignored.Load(), e.ringEvictions.Load()
	var rows []DeviceAccount
	for _, sh := range e.shards {
		sh.mu.Lock()
		for dev, st := range sh.devices {
			acct := DeviceAccount{Device: dev, Status: "clean", Records: st.recs, Ignored: st.ign, Evictions: st.evict}
			switch {
			case st.detection != nil:
				d := *st.detection
				d.Device = dev
				acct.Status, acct.Detection = "detected", &d
			case st.shed:
				acct.Status = "shed"
			}
			rows = append(rows, acct)
		}
		sh.mu.Unlock()
	}
	snap := NewSnapshot("sentryd", rows)
	snap.RecordsIngested, snap.RecordsIgnored, snap.RingEvictions = records, ignored, evictions
	return snap
}

// NewSnapshot tallies device rows into a Snapshot: every row counts in
// exactly one of Detected, Shed and Clean by its status, flagged rows
// list their detection, the record totals are the rows' sums, and both
// lists are sorted by device — so the exclusive accounting identity
// holds by construction. A ring router builds its fleet report this way
// from merged rows; the engine then overrides the record totals with
// its live counters.
func NewSnapshot(service string, rows []DeviceAccount) Snapshot {
	snap := Snapshot{Service: service, DevicesReported: len(rows), Devices: rows}
	for _, row := range rows {
		snap.RecordsIngested += row.Records
		snap.RecordsIgnored += row.Ignored
		snap.RingEvictions += row.Evictions
		switch row.Status {
		case "detected":
			snap.Detected++
			d := *row.Detection
			d.Device = row.Device
			snap.Detections = append(snap.Detections, d)
		case "shed":
			snap.Shed++
		default:
			snap.Clean++
		}
	}
	sort.Slice(snap.Detections, func(i, j int) bool {
		return snap.Detections[i].Device < snap.Detections[j].Device
	})
	sort.Slice(snap.Devices, func(i, j int) bool {
		return snap.Devices[i].Device < snap.Devices[j].Device
	})
	return snap
}

// DetectionFor reports the device's detection, if it has one.
func (e *Engine) DetectionFor(device string) (Detection, bool) {
	sh := e.shardFor(device)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.devices[device]
	if st == nil || st.detection == nil {
		return Detection{}, false
	}
	d := *st.detection
	d.Device = device
	return d, true
}

// Detected reports whether the device has been flagged.
func (e *Engine) Detected(device string) bool {
	sh := e.shardFor(device)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.devices[device]
	return st != nil && st.detection != nil
}

// DetectionsTotal reports the number of devices flagged so far.
func (e *Engine) DetectionsTotal() uint64 { return e.detections.Load() }

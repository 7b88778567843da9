package sentry

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/ring"
	"repro/internal/simrand"
)

// Device classes in a generated fleet. Attack classes reproduce the
// paper's draw-and-destroy cadence and the Knock-Knock notification
// flood; the benign classes are calibrated to stress the detector's
// specificity: chatty devices cross the MinCalls threshold but never
// produce MaxSwapGap-scale gaps, widget devices mirror the §VII-A
// benign music-widget scenario, quiet devices barely report.
const (
	ClassAttacker    = "attacker"     // draw-and-destroy overlay swaps
	ClassNotifAbuser = "notif-abuser" // notification flood
	ClassChatty      = "chatty"       // fast benign overlay toggles
	ClassWidget      = "widget"       // slow benign overlay toggles
	ClassQuiet       = "quiet"        // near-silent
)

// FleetConfig seeds a labeled fleet. The zero value of Span selects
// 20s; Devices must cover the planted attacker counts.
type FleetConfig struct {
	// Devices is the fleet size.
	Devices int
	// Attackers is the number of planted draw-and-destroy devices.
	Attackers int
	// NotifAbusers is the number of planted notification-flood devices.
	NotifAbusers int
	// Span is the simulated capture span per device stream.
	Span time.Duration
	// Seed drives every draw (via internal/simrand sub-streams).
	Seed int64
}

// FleetDevice is one device's labeled record stream.
type FleetDevice struct {
	ID      string
	Class   string
	Records []Record
}

// Fleet is a generated, labeled fleet: the streams plus the planted
// ground truth. Because truth is generated, any replay of the fleet
// doubles as a conformance corpus — Evaluate scores a detection
// snapshot against Truth.
type Fleet struct {
	Cfg     FleetConfig
	Devices []FleetDevice
	// Truth maps planted attack devices to their pattern.
	Truth map[string]string
}

// Records reports the total record count across the fleet.
func (f *Fleet) Records() int {
	n := 0
	for _, d := range f.Devices {
		n += len(d.Records)
	}
	return n
}

// GenerateFleet builds the fleet deterministically from cfg. Attack
// devices are planted at seeded positions among the benign population;
// every stream draws only from its own derived sub-stream, so the
// fleet is byte-stable under replay and device streams are independent
// of one another.
func GenerateFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Devices < 1 {
		return nil, fmt.Errorf("sentry: fleet of %d devices", cfg.Devices)
	}
	if cfg.Attackers < 0 || cfg.NotifAbusers < 0 || cfg.Attackers+cfg.NotifAbusers > cfg.Devices {
		return nil, fmt.Errorf("sentry: %d+%d planted attackers exceed %d devices",
			cfg.Attackers, cfg.NotifAbusers, cfg.Devices)
	}
	if cfg.Span == 0 {
		cfg.Span = 20 * time.Second
	}
	if cfg.Span < time.Second {
		return nil, fmt.Errorf("sentry: span %v too short", cfg.Span)
	}
	master := simrand.New(cfg.Seed)
	// Plant the attackers at seeded positions.
	perm := master.Derive("fleet/placement").Perm(cfg.Devices)
	class := make(map[int]string, cfg.Attackers+cfg.NotifAbusers)
	for i := 0; i < cfg.Attackers; i++ {
		class[perm[i]] = ClassAttacker
	}
	for i := 0; i < cfg.NotifAbusers; i++ {
		class[perm[cfg.Attackers+i]] = ClassNotifAbuser
	}

	fl := &Fleet{
		Cfg:     cfg,
		Devices: make([]FleetDevice, cfg.Devices),
		Truth:   make(map[string]string, cfg.Attackers+cfg.NotifAbusers),
	}
	for i := 0; i < cfg.Devices; i++ {
		rng := master.DeriveIndexed("fleet/device", i)
		d := FleetDevice{ID: fmt.Sprintf("dev-%05d", i)}
		switch class[i] {
		case ClassAttacker:
			d.Class = ClassAttacker
			d.Records = attackerStream(rng, d.ID, cfg.Span)
			fl.Truth[d.ID] = PatternDrawAndDestroy
		case ClassNotifAbuser:
			d.Class = ClassNotifAbuser
			d.Records = notifAbuserStream(rng, d.ID, cfg.Span)
			fl.Truth[d.ID] = PatternNotifyFlood
		default:
			switch p := rng.Float64(); {
			case p < 0.20:
				d.Class = ClassChatty
				d.Records = chattyStream(rng, d.ID, cfg.Span)
			case p < 0.70:
				d.Class = ClassWidget
				d.Records = widgetStream(rng, d.ID, cfg.Span)
			default:
				d.Class = ClassQuiet
				d.Records = quietStream(rng, d.ID, cfg.Span)
			}
		}
		finalize(d.Records)
		fl.Devices[i] = d
	}
	return fl, nil
}

// finalize time-sorts a stream and assigns its sequence numbers.
func finalize(recs []Record) {
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].At < recs[j].At })
	for i := range recs {
		recs[i].Seq = uint64(i)
	}
}

func ms(rng *simrand.Source, mean, jitter, lo, hi float64) time.Duration {
	return time.Duration(rng.TruncNormal(mean, jitter, lo, hi) * float64(time.Millisecond))
}

// attackerStream is the paper's draw-and-destroy cadence: hold the
// overlay for the attack window D (~80–240ms), destroy it, and re-draw
// within single-digit milliseconds. The remove→add gap is the
// millisecond-scale swap signature §VII-A keys on.
func attackerStream(rng *simrand.Source, id string, span time.Duration) []Record {
	var recs []Record
	t := time.Duration(rng.Float64() * float64(2*time.Second))
	for t < span {
		hold := ms(rng, 140, 35, 80, 240)
		gap := ms(rng, 3, 1.5, 1, 8)
		recs = append(recs,
			Record{Device: id, Method: MethodAddView, At: t},
			Record{Device: id, Method: MethodRemoveView, At: t + hold},
		)
		t += hold + gap
	}
	return recs
}

// notifAbuserStream floods the notification shade: one
// enqueueNotification every ~35–90ms, guaranteeing ≥30 per 3s window.
func notifAbuserStream(rng *simrand.Source, id string, span time.Duration) []Record {
	var recs []Record
	t := time.Duration(rng.Float64() * float64(2*time.Second))
	for t < span {
		recs = append(recs, Record{Device: id, Method: MethodEnqueueNotification, At: t})
		t += ms(rng, 55, 15, 35, 90)
	}
	return recs
}

// chattyStream is the adversarially-benign class: overlay toggles fast
// enough to cross MinCalls in a window, but with every gap clamped to
// ≥250ms — five times MaxSwapGap — so the swap rule must be the thing
// keeping it clean. A slow notification trickle rides along.
func chattyStream(rng *simrand.Source, id string, span time.Duration) []Record {
	var recs []Record
	t := time.Duration(rng.Float64() * float64(3*time.Second))
	add := true
	for t < span {
		m := MethodRemoveView
		if add {
			m = MethodAddView
		}
		recs = append(recs, Record{Device: id, Method: m, At: t})
		add = !add
		t += ms(rng, 350, 60, 250, 450)
	}
	for t = time.Duration(rng.Float64() * float64(2*time.Second)); t < span; t += ms(rng, 2200, 400, 1500, 3000) {
		recs = append(recs, Record{Device: id, Method: MethodEnqueueNotification, At: t})
	}
	return recs
}

// widgetStream mirrors the §VII-A benign scenario: a floating widget
// shown for seconds at a time.
func widgetStream(rng *simrand.Source, id string, span time.Duration) []Record {
	var recs []Record
	t := time.Duration(rng.Float64() * float64(4*time.Second))
	for t < span {
		hold := ms(rng, 4500, 900, 3000, 6000)
		recs = append(recs, Record{Device: id, Method: MethodAddView, At: t})
		if t+hold < span {
			recs = append(recs, Record{Device: id, Method: MethodRemoveView, At: t + hold})
		}
		t += hold + ms(rng, 4000, 800, 2500, 5500)
	}
	return recs
}

// quietStream barely reports: one short-lived overlay or a couple of
// notifications across the whole span.
func quietStream(rng *simrand.Source, id string, span time.Duration) []Record {
	var recs []Record
	lead := span - 2*time.Second
	if lead <= 0 {
		lead = span / 2
	}
	t := time.Duration(rng.Float64() * float64(lead))
	if rng.Bool(0.5) {
		hold := ms(rng, 1500, 500, 500, 2000)
		recs = append(recs,
			Record{Device: id, Method: MethodAddView, At: t},
			Record{Device: id, Method: MethodRemoveView, At: t + hold},
		)
	} else {
		n := 1 + rng.Intn(2)
		for i := 0; i < n; i++ {
			recs = append(recs, Record{Device: id, Method: MethodEnqueueNotification, At: t})
			t += ms(rng, 3000, 1000, 1000, 6000)
		}
	}
	return recs
}

// segments splits a stream into batches of at most batch records.
func segments(recs []Record, batch int) [][]Record {
	if batch < 1 {
		batch = 1
	}
	var out [][]Record
	for len(recs) > batch {
		out = append(out, recs[:batch])
		recs = recs[batch:]
	}
	if len(recs) > 0 {
		out = append(out, recs)
	}
	return out
}

// ReplayStats aggregates one fleet replay.
type ReplayStats struct {
	Batches int // batches sent
	OK      int // 200 responses
	Shed    int // 429 responses (after any retries)
	Errors  int // transport errors and unexpected statuses
	// Retried counts re-sends after a 429 (Retry-After honored);
	// Abandoned counts batches still shed when the retry budget ran out.
	Retried   int
	Abandoned int
	// FirstError samples the first failure for diagnostics.
	FirstError string
}

func (rs *ReplayStats) addError(err string) {
	rs.Errors++
	if rs.FirstError == "" {
		rs.FirstError = err
	}
}

// merge folds one client's stats into the total.
func (rs *ReplayStats) merge(o ReplayStats) {
	rs.Batches += o.Batches
	rs.OK += o.OK
	rs.Shed += o.Shed
	rs.Errors += o.Errors
	rs.Retried += o.Retried
	rs.Abandoned += o.Abandoned
	if rs.FirstError == "" {
		rs.FirstError = o.FirstError
	}
}

// ReplayOptions tunes ReplayFleet; the zero value is one client sending
// one record per batch, open-loop.
type ReplayOptions struct {
	// Clients is the replay goroutine count (default 1, clamped to the
	// device count).
	Clients int
	// Batch bounds records per ingest batch (default 1).
	Batch int
	// Retry429 is the number of re-sends of a shed batch, honoring the
	// server's Retry-After hint (capped at 300ms, jittered ±50% from the
	// seeded stream) before abandoning it. 0 keeps the pure open-loop
	// behavior: a shed batch is dropped and the stream continues.
	Retry429 int
	// Seed drives the per-client retry jitter streams (default 1).
	Seed int64
}

// ReplayFleet replays the fleet's streams against a sentry server at
// base (e.g. "http://127.0.0.1:8475") from opts.Clients client
// goroutines, open-loop: clients send as the schedule dictates and
// never slow down for the server — an overloaded node sheds, it is not
// protected by client backoff.
//
// Device i is owned by client i%clients; each client interleaves its
// devices round-robin, one batch per device per pass, so per-device
// batches arrive strictly in stream order (the engine's sequence
// contract) while the fleet's streams interleave freely. 429 responses
// are counted shed and, once opts.Retry429 re-sends are spent, the
// stream continues with the next batch — the skipped sequence range is
// exactly the gap the engine tolerates. Transport errors are counted,
// not fatal, so a replay can ride through a server restart.
func ReplayFleet(client *http.Client, base string, fl *Fleet, opts ReplayOptions) ReplayStats {
	clients := opts.Clients
	if clients < 1 {
		clients = 1
	}
	if clients > len(fl.Devices) {
		clients = len(fl.Devices)
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	master := simrand.New(seed)
	// Per-client streams are derived up front: Derive advances the
	// parent source, so deriving inside the goroutines would race.
	rngs := make([]*simrand.Source, clients)
	for c := range rngs {
		rngs[c] = master.DeriveIndexed("sentry/replay", c)
	}
	stats := make([]ReplayStats, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rngs[c]
			type devReplay struct {
				id   string
				segs [][]Record
			}
			var devs []devReplay
			for i := c; i < len(fl.Devices); i += clients {
				d := fl.Devices[i]
				if len(d.Records) == 0 {
					continue
				}
				devs = append(devs, devReplay{id: d.ID, segs: segments(d.Records, opts.Batch)})
			}
			for pass := 0; ; pass++ {
				sent := false
				for _, d := range devs {
					if pass >= len(d.segs) {
						continue
					}
					sent = true
					postBatch(client, base, d.id, d.segs[pass], &stats[c], opts.Retry429, rng)
				}
				if !sent {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	var total ReplayStats
	for _, st := range stats {
		total.merge(st)
	}
	return total
}

// postBatch sends one device batch and classifies the outcome,
// re-sending shed batches up to retry429 times with the server's
// (capped, jittered) Retry-After hint between attempts.
func postBatch(client *http.Client, base, device string, recs []Record, rs *ReplayStats, retry429 int, rng *simrand.Source) {
	rs.Batches++
	body, err := EncodeBatch(recs)
	if err != nil {
		rs.addError(fmt.Sprintf("encode %s: %v", device, err))
		return
	}
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(base+"/v1/ingest?device="+device, "text/plain", bytes.NewReader(body))
		if err != nil {
			rs.addError(fmt.Sprintf("post %s: %v", device, err))
			return
		}
		delay := ring.RetryDelay(resp, rng)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			rs.OK++
			return
		case http.StatusTooManyRequests:
			if attempt < retry429 {
				rs.Retried++
				time.Sleep(delay)
				continue
			}
			rs.Shed++
			if retry429 > 0 {
				rs.Abandoned++
			}
			return
		default:
			rs.addError(fmt.Sprintf("post %s: status %d", device, resp.StatusCode))
			return
		}
	}
}

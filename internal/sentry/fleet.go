package sentry

import (
	"fmt"
	"sort"
	"time"

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

// Package defense implements the paper's Section VII mitigations.
//
// The IPC-based detector observes Binder transactions (method, caller,
// timestamp) the way the paper's modified Binder driver does, and feeds
// each app's addView/removeView deliveries to the Section VII-A decision
// rule of internal/sentry: an app whose recent window contains many
// addView/removeView calls with short, regular gaps between a removeView
// and the next addView is running a draw-and-destroy attack. The
// simulator and the serving stack thus run one copy of the rule. On
// detection the response hook can terminate the attack, e.g. by
// revoking SYSTEM_ALERT_WINDOW.
//
// The enhanced-notification defense of Section VII-B lives in the System
// Server (sysserver.Server.EnableEnhancedNotificationDefense); this
// package provides its evaluation helpers.
package defense

import (
	"errors"
	"sort"

	"repro/internal/binder"
	"repro/internal/sentry"
	"repro/internal/sysserver"
)

// IPCDetector is the Section VII-A detector: an adapter that streams a
// stack's overlay traffic into one sentry.Engine, each app an engine
// device and each addView/removeView delivery one of its records.
// Install its Observe method on the Binder bus.
type IPCDetector struct {
	eng *sentry.Engine
	// seqs numbers each app's records in delivery order. Transaction
	// IDs are assigned at send time, so they are not monotone across
	// the add and remove streams, and a duplicated delivery reuses its
	// ID; the engine needs strictly increasing sequence numbers.
	seqs     map[binder.ProcessID]uint64
	observed uint64
	err      error
	// revoke, when set by Install, terminates a flagged app.
	revoke func(binder.ProcessID)
}

// NewIPCDetector builds a detector on the engine's default thresholds,
// with the notification rule off: the detector sees overlay calls only.
func NewIPCDetector() (*IPCDetector, error) {
	eng, err := sentry.NewEngine(sentry.Config{Shards: 1, NotifFlood: -1})
	if err != nil {
		return nil, err
	}
	return &IPCDetector{eng: eng, seqs: make(map[binder.ProcessID]uint64)}, nil
}

// Observe consumes one delivered Binder transaction; install it with
// bus.Observe(det.Observe).
func (d *IPCDetector) Observe(tx binder.Transaction) {
	if tx.Method != sysserver.MethodAddView && tx.Method != sysserver.MethodRemoveView {
		return
	}
	d.observed++
	d.seqs[tx.From]++
	dev := string(tx.From)
	flagged := d.eng.DetectionsTotal()
	rec := []sentry.Record{{Device: dev, Seq: d.seqs[tx.From], Method: tx.Method, At: tx.DeliveredAt}}
	if _, err := d.eng.Ingest(dev, rec); err != nil && d.err == nil {
		d.err = err
	}
	if d.revoke != nil && d.eng.DetectionsTotal() > flagged {
		d.revoke(tx.From)
	}
}

// Err reports the error of the first record the engine refused, if any.
func (d *IPCDetector) Err() error { return d.err }

// Detections returns all positive findings so far, each app in Device,
// ordered by detection time then app so repeated runs render identically.
func (d *IPCDetector) Detections() []sentry.Detection {
	out := d.eng.Snapshot().Detections // sorted by device
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Detected reports whether the app has been flagged.
func (d *IPCDetector) Detected(app binder.ProcessID) bool {
	return d.eng.Detected(string(app))
}

// Observed reports how many transactions of interest were analyzed (the
// defense's work volume, for the overhead evaluation).
func (d *IPCDetector) Observed() uint64 { return d.observed }

// Install wires the detector into a stack: it observes the stack's Binder
// bus and, if terminate is true, revokes SYSTEM_ALERT_WINDOW from detected
// apps (which also removes their attached overlays).
func (d *IPCDetector) Install(stack *sysserver.Stack, terminate bool) error {
	if stack == nil {
		return errors.New("defense: nil stack")
	}
	if terminate {
		d.revoke = stack.WM.RevokeOverlayPermission
	}
	stack.Bus.Observe(d.Observe)
	return nil
}

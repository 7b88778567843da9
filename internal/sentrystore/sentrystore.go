// Package sentrystore is the crash-safe detection journal behind a
// sentryd node: a disk-backed, fsynced, append-only JSONL file holding
// sentry detections keyed by device+rule+window. It is internal/applog's
// keyed store specialized to sentry.Detection — one header line pinning
// the format version, then one fsynced record per detection — so a
// sentryd node SIGKILLed at any instant, including mid-append,
// restarts, recovers the journal, and answers "was this device ever
// flagged" byte-identically without re-seeing a single record of the
// stream.
//
// A torn trailing line is truncated away exactly once on Open; a record
// for a key seen earlier wins (last-write-wins), so re-journaling a
// detection is safe; Compact rewrites the file with one record per key,
// keys sorted, via a fsynced temp file and an atomic rename.
package sentrystore

import (
	"strconv"
	"time"

	"repro/internal/applog"
	"repro/internal/sentry"
)

// FlagKey derives the journal key for a detection: device, rule pattern
// and the window index the triggering record fell in. One device firing
// the same rule in the same window journals to one key, so a retried
// batch replayed after a crash cannot double-count.
func FlagKey(d sentry.Detection, window time.Duration) string {
	idx := int64(0)
	if window > 0 {
		idx = int64(d.At / window)
	}
	return d.Device + "|" + d.Pattern + "|" + strconv.FormatInt(idx, 10)
}

// Store is the persistent detection journal. All methods are safe for
// concurrent use.
type Store = applog.Store[sentry.Detection]

// Open opens or creates the store at path, recovering any existing
// records. A torn trailing line (crash mid-append) is truncated away; a
// file whose header names a different format version is refused.
func Open(path string) (*Store, error) {
	return applog.OpenStore[sentry.Detection](path, "sentrystore", "detection")
}

// Flagger adapts a Store to sentry.Journal: every detection the engine
// flags is journaled under its FlagKey before the triggering ingest
// returns. Window should match the engine's construction window — the
// key's window index is a dedup granularity, not a detection input, so
// a live config change does not need to rewire the adapter.
type Flagger struct {
	S      *Store
	Window time.Duration
}

// Append implements sentry.Journal.
func (f Flagger) Append(d sentry.Detection) error {
	return f.S.Put(FlagKey(d, f.Window), d)
}

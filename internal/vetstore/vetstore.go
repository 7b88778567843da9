// Package vetstore is the crash-safe persistent verdict store behind a
// vetd node: a disk-backed, fsynced, append-only JSONL file holding
// scan-before-install verdicts under their content-addressed keys
// (vetd.VerdictKey: IR hash + analysis tier). It is internal/applog's
// keyed store specialized to defense.VetVerdict — one header line
// pinning the format version, then one fsynced record per verdict — so
// a vetd node SIGKILLed at any instant, including mid-append, restarts,
// recovers the store, and serves every durable verdict byte-for-byte
// without re-running a single analysis.
//
// A torn trailing line is truncated away exactly once on Open; a record
// for a key seen earlier wins (last-write-wins), so re-putting a
// verdict is safe; Compact rewrites the file with one record per key,
// keys sorted, via a fsynced temp file and an atomic rename.
package vetstore

import (
	"repro/internal/applog"
	"repro/internal/defense"
)

// Store is the persistent verdict store. All methods are safe for
// concurrent use.
type Store = applog.Store[defense.VetVerdict]

// Open opens or creates the store at path, recovering any existing
// records. A torn trailing line (crash mid-append) is truncated away; a
// file whose header names a different format version is refused.
func Open(path string) (*Store, error) {
	return applog.OpenStore[defense.VetVerdict](path, "vetstore", "verdict")
}

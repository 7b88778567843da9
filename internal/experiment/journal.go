package experiment

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/applog"
)

// Journal is a crash-safe per-trial result log for the experiment driver:
// an internal/applog log — append-only JSONL, fsynced per record — whose
// header pins the run's identity (experiment name, seed, parameters).
// The driver (Run/Collect) checks the journal before executing each trial:
// a trial whose key is already on disk replays the recorded result instead
// of re-running, so a run killed at any instant — including SIGKILL —
// resumes from where it died and, because the simulation is deterministic,
// produces a byte-identical report.
//
// Records are keyed by a content address — a hash of the trial's inputs
// (Trial.Key) — not by position, so records may be committed out of order
// by a worker pool and a journal survives refactors that reorder trials.
// Format v1 journals were keyed positionally and are refused.
//
// A nil *Journal is valid and disables journaling entirely: the driver
// then executes every trial live.
type Journal struct {
	log  *applog.Log
	mu   sync.Mutex
	done map[string]json.RawMessage
}

// journalVersion is the current format: content-addressed trial keys.
// Version 1 keyed records by trial position/loop indices; replaying one
// against the current trial sets would silently mismatch results, so v1
// files are refused with an explicit error.
const journalVersion = 2

// journalHeader is the first line of a journal file. A resume against a
// different experiment, seed or parameter set must fail loudly rather than
// replay foreign trials.
type journalHeader struct {
	V      int    `json:"v"`
	Exp    string `json:"exp"`
	Seed   int64  `json:"seed"`
	Params string `json:"params"`
}

// journalLine is one completed trial: the content key, the inputs it
// hashes (kept verbatim for debuggability) and the encoded result.
type journalLine struct {
	ID     string          `json:"id"`
	Inputs string          `json:"inputs,omitempty"`
	Result json.RawMessage `json:"result"`
}

// OpenJournal opens or creates the journal at path for the given run
// identity. An existing file is loaded for resume; a torn trailing line
// from a crash mid-append is truncated away (that trial re-runs). An
// existing file with a different identity — or a stale positional-format
// (v1) journal — is an error.
func OpenJournal(path, exp string, seed int64, params string) (*Journal, error) {
	hdr := journalHeader{V: journalVersion, Exp: exp, Seed: seed, Params: params}
	j := &Journal{done: make(map[string]json.RawMessage)}
	check := func(line []byte) error {
		var got journalHeader
		if jerr := json.Unmarshal(line, &got); jerr == nil && got.V == 1 {
			return fmt.Errorf("experiment: journal %s uses stale positional trial keys (format v1, this build writes v%d); its records cannot be replayed safely — delete it to start over",
				path, journalVersion)
		} else if jerr != nil || got != hdr {
			return fmt.Errorf("experiment: journal %s belongs to a different run (want v=%d exp=%s seed=%d params=%q); delete it to start over",
				path, hdr.V, hdr.Exp, hdr.Seed, hdr.Params)
		}
		return nil
	}
	replay := func(line []byte) bool {
		var jl journalLine
		if json.Unmarshal(line, &jl) != nil || jl.ID == "" {
			return false
		}
		j.done[jl.ID] = jl.Result
		return true
	}
	log, _, err := applog.Open(path, "experiment", hdr, check, replay)
	if err != nil {
		return nil, err
	}
	j.log = log
	return j, nil
}

// Lookup unmarshals the recorded result of trial key id into out and
// reports whether the trial was found. A nil journal never finds anything.
func (j *Journal) Lookup(id string, out any) (bool, error) {
	if j == nil {
		return false, nil
	}
	j.mu.Lock()
	raw, ok := j.done[id]
	j.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return false, fmt.Errorf("experiment: decode journaled trial %q: %w", id, err)
	}
	return true, nil
}

// Record appends one finished trial and fsyncs, so a kill at any later
// instant preserves it. id is the trial's content key, inputs the string
// it hashes. Safe to call from multiple workers; recording on a nil
// journal is a no-op.
func (j *Journal) Record(id, inputs string, result json.RawMessage) error {
	if j == nil {
		return nil
	}
	if err := j.log.Append(journalLine{ID: id, Inputs: inputs, Result: result}); err != nil {
		return err
	}
	j.mu.Lock()
	j.done[id] = result
	j.mu.Unlock()
	return nil
}

// Done reports how many trials the journal holds (recorded this run plus
// replayed from disk). Zero on a nil journal.
func (j *Journal) Done() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Close closes the file, keeping it on disk for a later resume. Safe on a
// nil journal.
func (j *Journal) Close() {
	if j != nil {
		j.log.Close()
	}
}

// Finish closes and deletes the journal after a fully completed run. Safe
// on a nil journal.
func (j *Journal) Finish() error {
	if j == nil {
		return nil
	}
	return j.log.Remove()
}

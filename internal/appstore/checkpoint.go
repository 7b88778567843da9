package appstore

import (
	"encoding/json"
	"fmt"

	"repro/internal/applog"
	"repro/internal/staticanalysis"
)

// InterruptedError reports a corpus study stopped before completion — by
// context cancellation (SIGINT) or a failed chunk. When a checkpoint path
// was configured, every finished chunk is already on disk and rerunning
// the same study with the same path resumes from NextChunk.
type InterruptedError struct {
	// ChunksDone and ChunksTotal describe the study's progress.
	ChunksDone, ChunksTotal int
	// NextChunk is the first chunk a resumed run still has to scan.
	NextChunk int
	// Err is the underlying cause (usually context.Canceled).
	Err error
}

// Error renders the interruption, including the resume point.
func (e *InterruptedError) Error() string {
	return fmt.Sprintf("appstore: study interrupted after %d/%d chunks (%v); resumable from chunk %d",
		e.ChunksDone, e.ChunksTotal, e.Err, e.NextChunk)
}

// Unwrap exposes the cause.
func (e *InterruptedError) Unwrap() error { return e.Err }

// checkpointHeader is the first line of a checkpoint file and pins the
// study's identity; a resume against a different study must fail loudly
// rather than merge incompatible chunks. Tier and Rates are omitted at
// the defaults (Tier0, PaperRates), so checkpoints written before tiers
// existed still resume a default study.
type checkpointHeader struct {
	V         int    `json:"v"`
	Seed      int64  `json:"seed"`
	N         int    `json:"n"`
	ChunkSize int    `json:"chunk_size"`
	Tier      int    `json:"tier,omitempty"`
	Rates     string `json:"rates,omitempty"`
}

// ratesID fingerprints non-default corpus rates for the header; the
// default (paper) rates map to "" for backward compatibility.
func ratesID(r Rates) string {
	if r == PaperRates() {
		return ""
	}
	return fmt.Sprintf("%+v", r)
}

// checkpointLine records one finished chunk's report. Lines are appended
// in completion order (which varies with worker scheduling); the final
// merge always runs in chunk order, so the assembled Report is
// byte-identical to an uninterrupted run.
type checkpointLine struct {
	Chunk  int    `json:"chunk"`
	Report Report `json:"report"`
}

// checkpoint is the crash-safe chunk journal: an internal/applog log
// with a header line plus one line per finished chunk, fsynced per
// append so a kill at any instant loses at most the chunk being written
// (a torn trailing line is truncated away on load and that chunk simply
// re-runs).
type checkpoint struct {
	log  *applog.Log
	done map[int]Report
}

// openCheckpoint opens or creates the journal for the given study
// identity. An existing file with a different identity is an error.
func openCheckpoint(path string, seed int64, n int, tier staticanalysis.Tier, rates Rates) (*checkpoint, error) {
	hdr := checkpointHeader{V: 1, Seed: seed, N: n, ChunkSize: studyChunkSize, Tier: int(tier), Rates: ratesID(rates)}
	cp := &checkpoint{done: make(map[int]Report)}
	check := func(line []byte) error {
		var got checkpointHeader
		if jerr := json.Unmarshal(line, &got); jerr != nil || got != hdr {
			return fmt.Errorf("appstore: checkpoint %s belongs to a different study (want v=%d seed=%d n=%d chunk_size=%d tier=%d); delete it to start over",
				path, hdr.V, hdr.Seed, hdr.N, hdr.ChunkSize, hdr.Tier)
		}
		return nil
	}
	replay := func(line []byte) bool {
		var cl checkpointLine
		if json.Unmarshal(line, &cl) != nil {
			return false
		}
		cp.done[cl.Chunk] = cl.Report
		return true
	}
	log, _, err := applog.Open(path, "appstore", hdr, check, replay)
	if err != nil {
		return nil, err
	}
	cp.log = log
	return cp, nil
}

// record appends one finished chunk and fsyncs.
func (cp *checkpoint) record(chunk int, rep Report) error {
	return cp.log.Append(checkpointLine{Chunk: chunk, Report: rep})
}

// close closes the journal, keeping the file for a later resume.
func (cp *checkpoint) close() { cp.log.Close() }

// finish closes and deletes the journal after a completed study.
func (cp *checkpoint) finish() error { return cp.log.Remove() }

package experiment

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fig6Baseline computes the un-journaled reference render once per test.
func fig6Baseline(t *testing.T, seed int64) string {
	t.Helper()
	out, err := Run(&fig6Exp{model: "mi8"}, RunOpts{Seed: seed})
	if err != nil {
		t.Fatalf("baseline fig6: %v", err)
	}
	return out.Text
}

// completedFig6Journal runs a journaled fig6 sweep to completion and
// returns the raw journal bytes (header line + one line per sweep point).
func completedFig6Journal(t *testing.T, seed int64) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fig6.journal")
	j, err := OpenJournal(path, "fig6", seed, "model=mi8")
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	if _, err := Run(&fig6Exp{model: "mi8"}, RunOpts{Seed: seed, Journal: j}); err != nil {
		t.Fatalf("journaled fig6: %v", err)
	}
	j.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	return raw
}

// resumeFig6From writes raw as the journal file and resumes the sweep from
// it, returning the rendered report.
func resumeFig6From(t *testing.T, raw []byte, seed int64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fig6.journal")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("write truncated journal: %v", err)
	}
	j, err := OpenJournal(path, "fig6", seed, "model=mi8")
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	defer j.Close()
	out, err := Run(&fig6Exp{model: "mi8"}, RunOpts{Seed: seed, Journal: j})
	if err != nil {
		t.Fatalf("resumed fig6: %v", err)
	}
	return out.Text
}

// TestJournalResumeEveryBoundary simulates a crash after every record
// boundary of a fig6 sweep: for each prefix of the journal, a resumed run
// must produce a report byte-identical to the un-journaled baseline.
func TestJournalResumeEveryBoundary(t *testing.T) {
	const seed = 7
	want := fig6Baseline(t, seed)
	raw := completedFig6Journal(t, seed)
	lines := bytes.SplitAfter(raw, []byte("\n"))
	// lines[0] is the header; a crash can leave any number of records.
	for k := 1; k <= len(lines); k++ {
		prefix := bytes.Join(lines[:k], nil)
		if got := resumeFig6From(t, prefix, seed); got != want {
			t.Fatalf("resume from %d/%d journal lines diverges\nwant:\n%s\ngot:\n%s",
				k, len(lines), want, got)
		}
	}
}

// TestJournalResumeShuffledRecords: records committed out of order by a
// worker pool must resume exactly like in-order ones — the journal is
// keyed by trial content, not position.
func TestJournalResumeShuffledRecords(t *testing.T) {
	const seed = 7
	want := fig6Baseline(t, seed)
	raw := completedFig6Journal(t, seed)
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("journal too short: %d lines", len(lines))
	}
	// Header first, then the records reversed — the most out-of-order a
	// pool could be.
	shuffled := append([]byte{}, lines[0]...)
	for k := len(lines) - 1; k >= 1; k-- {
		shuffled = append(shuffled, lines[k]...)
	}
	if got := resumeFig6From(t, shuffled, seed); got != want {
		t.Fatalf("resume from shuffled journal diverges\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestJournalResumeTornRecord simulates a crash mid-write: the journal
// ends with half a record line. The torn tail must be dropped and the
// resumed run must still match the baseline byte for byte.
func TestJournalResumeTornRecord(t *testing.T) {
	const seed = 7
	want := fig6Baseline(t, seed)
	raw := completedFig6Journal(t, seed)
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("journal too short for a torn-record test: %d lines", len(lines))
	}
	// Tear the third record in half (keep header + two full records).
	torn := bytes.Join(lines[:3], nil)
	half := lines[3][:len(lines[3])/2]
	torn = append(torn, half...)
	if got := resumeFig6From(t, torn, seed); got != want {
		t.Fatalf("resume from torn journal diverges\nwant:\n%s\ngot:\n%s", want, got)
	}

	// A record appended after resuming over the torn line must start on
	// a clean line and survive the next resume.
	path := filepath.Join(t.TempDir(), "fig6.journal")
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatalf("write torn journal: %v", err)
	}
	j, err := OpenJournal(path, "fig6", seed, "model=mi8")
	if err != nil {
		t.Fatalf("reopen torn journal: %v", err)
	}
	if err := j.Record("post-resume", "trial after the tear", json.RawMessage(`7`)); err != nil {
		t.Fatalf("record after resume: %v", err)
	}
	j.Close()
	j, err = OpenJournal(path, "fig6", seed, "model=mi8")
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer j.Close()
	var n int
	if ok, err := j.Lookup("post-resume", &n); err != nil || !ok || n != 7 {
		t.Fatalf("post-resume record lost across reopen: ok=%v n=%d err=%v", ok, n, err)
	}
	if got := j.Done(); got != 3 {
		t.Fatalf("reopened journal holds %d records, want the 2 intact ones plus the post-resume one", got)
	}
}

// TestJournalIdentityMismatch: a journal written under one identity must
// refuse to resume under another instead of silently mixing streams.
func TestJournalIdentityMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.journal")
	j, err := OpenJournal(path, "fig6", 7, "model=mi8")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := j.Record("a", "trial a", json.RawMessage("1")); err != nil {
		t.Fatalf("record: %v", err)
	}
	j.Close()
	cases := []struct {
		name, exp, params string
		seed              int64
	}{
		{"seed", "fig6", "model=mi8", 8},
		{"exp", "table2", "model=mi8", 7},
		{"params", "fig6", "model=op6", 7},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := OpenJournal(path, c.exp, c.seed, c.params); err == nil {
				t.Fatal("mismatched journal accepted")
			} else if !strings.Contains(err.Error(), "delete it") {
				t.Errorf("error does not tell the operator the way out: %v", err)
			}
		})
	}
}

// TestJournalRefusesStaleV1: a positional-format (v1) journal cannot be
// replayed against content-addressed trials; opening one must fail with an
// error that names the problem and the way out.
func TestJournalRefusesStaleV1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.journal")
	v1 := `{"v":1,"exp":"fig6","seed":7,"params":"model=mi8"}` + "\n" +
		`{"id":"trial-0","result":1}` + "\n"
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatalf("write v1 journal: %v", err)
	}
	_, err := OpenJournal(path, "fig6", 7, "model=mi8")
	if err == nil {
		t.Fatal("stale v1 journal accepted")
	}
	if !strings.Contains(err.Error(), "positional") {
		t.Errorf("error does not name the stale key format: %v", err)
	}
	if !strings.Contains(err.Error(), "delete it") {
		t.Errorf("error does not tell the operator the way out: %v", err)
	}
}

// TestJournalRoundTrip covers the basic record/lookup/done cycle and that
// Finish removes the file.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rt.journal")
	j, err := OpenJournal(path, "exp", 1, "p=1")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	type rec struct {
		N int     `json:"n"`
		F float64 `json:"f"`
	}
	if ok, err := j.Lookup("t1", &rec{}); err != nil || ok {
		t.Fatalf("lookup before record = (%v, %v), want (false, nil)", ok, err)
	}
	raw, err := json.Marshal(rec{N: 3, F: 1.5})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := j.Record("t1", "trial one", raw); err != nil {
		t.Fatalf("record: %v", err)
	}
	var got rec
	if ok, err := j.Lookup("t1", &got); err != nil || !ok {
		t.Fatalf("lookup after record = (%v, %v), want (true, nil)", ok, err)
	}
	if got != (rec{N: 3, F: 1.5}) {
		t.Fatalf("lookup returned %+v", got)
	}
	if n := j.Done(); n != 1 {
		t.Fatalf("Done() = %d, want 1", n)
	}

	// Reopen with the same identity: the record must still be there.
	j.Close()
	j2, err := OpenJournal(path, "exp", 1, "p=1")
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got = rec{}
	if ok, err := j2.Lookup("t1", &got); err != nil || !ok || got.N != 3 {
		t.Fatalf("lookup after reopen = (%v, %v, %+v)", ok, err, got)
	}
	if err := j2.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("journal survives Finish (stat err: %v)", err)
	}
}

// TestJournalNil: a nil journal disables journaling but keeps every entry
// point usable, including the driver itself.
func TestJournalNil(t *testing.T) {
	var j *Journal
	if ok, err := j.Lookup("x", new(int)); err != nil || ok {
		t.Fatalf("nil Lookup = (%v, %v)", ok, err)
	}
	if err := j.Record("x", "trial x", json.RawMessage("1")); err != nil {
		t.Fatalf("nil Record: %v", err)
	}
	if n := j.Done(); n != 0 {
		t.Fatalf("nil Done = %d", n)
	}
	j.Close()
	if err := j.Finish(); err != nil {
		t.Fatalf("nil Finish: %v", err)
	}
}

// TestTrialKeyContentAddressed: the journal key is a pure function of the
// trial inputs — stable across runs, distinct across inputs.
func TestTrialKeyContentAddressed(t *testing.T) {
	a := NewTrial("fig6 model=mi8 seed=7 d=100ms", "a", func() (int, error) { return 0, nil })
	b := NewTrial("fig6 model=mi8 seed=7 d=100ms", "b", func() (int, error) { return 1, nil })
	c := NewTrial("fig6 model=mi8 seed=7 d=130ms", "c", func() (int, error) { return 2, nil })
	if a.Key() != b.Key() {
		t.Fatalf("same inputs, different keys: %q vs %q", a.Key(), b.Key())
	}
	if a.Key() == c.Key() {
		t.Fatalf("different inputs share key %q", a.Key())
	}
	if len(a.Key()) != 24 {
		t.Fatalf("key %q not a 12-byte hex digest", a.Key())
	}
}

// TestCollectRejectsDuplicateInputs: two trials with identical inputs
// would silently share a journal record; the driver must refuse the trial
// set outright.
func TestCollectRejectsDuplicateInputs(t *testing.T) {
	_, err := Collect(dupExp{}, RunOpts{Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "share inputs") {
		t.Fatalf("duplicate trial inputs accepted (err = %v)", err)
	}
}

// dupExp is a synthetic experiment with a colliding trial set.
type dupExp struct{}

func (dupExp) Name() string   { return "dup" }
func (dupExp) Params() string { return "" }
func (dupExp) Trials(int64) ([]Trial, error) {
	mk := func() Trial { return NewTrial("same-inputs", "t", func() (int, error) { return 0, nil }) }
	return []Trial{mk(), mk()}, nil
}
func (dupExp) Render([]any) (Output, error) { return Output{}, nil }

// TestJournalResumeTableIIIBoundaries spot-checks the heavyweight runner:
// resuming a Table III run from a handful of record boundaries must give a
// table byte-identical to the un-journaled baseline. (The typist and
// password streams are shared across trials, so this catches any drift a
// replayed trial introduces into later live trials.)
func TestJournalResumeTableIIIBoundaries(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run resume test skipped in -short mode")
	}
	const seed = 11
	baseline, err := Run(&table3Exp{perParticipant: 1}, RunOpts{Seed: seed})
	if err != nil {
		t.Fatalf("baseline table3: %v", err)
	}
	want := baseline.Text

	path := filepath.Join(t.TempDir(), "t3.journal")
	j, err := OpenJournal(path, "table3", seed, "trials=1")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := Run(&table3Exp{perParticipant: 1}, RunOpts{Seed: seed, Journal: j}); err != nil {
		t.Fatalf("journaled table3: %v", err)
	}
	j.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	for _, k := range []int{1, 2, len(lines) / 2, len(lines) - 2, len(lines)} {
		prefix := bytes.Join(lines[:k], nil)
		p2 := filepath.Join(t.TempDir(), "t3.journal")
		if err := os.WriteFile(p2, prefix, 0o644); err != nil {
			t.Fatalf("write prefix: %v", err)
		}
		j2, err := OpenJournal(p2, "table3", seed, "trials=1")
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		out, err := Run(&table3Exp{perParticipant: 1}, RunOpts{Seed: seed, Journal: j2})
		if err != nil {
			t.Fatalf("resume from %d lines: %v", k, err)
		}
		j2.Close()
		if out.Text != want {
			t.Fatalf("resume from %d/%d journal lines diverges\nwant:\n%s\ngot:\n%s",
				k, len(lines), want, out.Text)
		}
	}
}

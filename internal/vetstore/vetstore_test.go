package vetstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/defense"
	"repro/internal/staticanalysis"
)

// makeVerdict builds a deterministic verdict for index i, with enough
// structure (findings, evidence) to make byte-identity a real check.
func makeVerdict(i int) defense.VetVerdict {
	v := defense.VetVerdict{
		Package: fmt.Sprintf("com.store.app%04d", i),
		Allow:   i%3 != 0,
		Tier:    staticanalysis.Tier(i % 3),
	}
	if !v.Allow {
		v.Findings = []staticanalysis.Finding{{
			Detector:   "draw-and-destroy",
			Capability: staticanalysis.CapDrawAndDestroy,
			Component:  fmt.Sprintf("com.store.app%04d.Main", i),
		}}
	}
	return v
}

func keyFor(i int) string {
	return fmt.Sprintf("hash%04d/tier%d", i, i%3)
}

func TestPutGetReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.store")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := s.Put(keyFor(i), makeVerdict(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st := r.Stats()
	if st.Recovered != n || st.TornTail {
		t.Fatalf("recovery stats %+v, want Recovered=%d TornTail=false", st, n)
	}
	for i := 0; i < n; i++ {
		got, ok, err := r.Get(keyFor(i))
		if err != nil || !ok {
			t.Fatalf("Get(%s): ok=%v err=%v", keyFor(i), ok, err)
		}
		want := makeVerdict(i)
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if !bytes.Equal(gb, wb) {
			t.Fatalf("recovered verdict %d differs:\n%s\nvs\n%s", i, gb, wb)
		}
	}
	if _, ok, _ := r.Get("absent/tier0"); ok {
		t.Fatal("absent key found")
	}
}

// TestTornTailTruncatedExactlyOnce plants a torn trailing record — the
// disk image a crash mid-append leaves behind — and checks that the
// first Open truncates it exactly once: the second Open sees a clean
// file of the same length and reports no torn tail.
func TestTornTailTruncatedExactlyOnce(t *testing.T) {
	for _, tail := range []string{
		`{"k":"torn/tier0","verdict":{"Pa`,          // partial JSON, no newline
		`{"k":"torn/tier0","verdict":`,              // truncated mid-record
		"{garbage}\n",                               // newline-terminated but malformed
		`{"k":"","verdict":{"Package":"x"}}` + "\n", // parseable but empty key
	} {
		t.Run(fmt.Sprintf("%.12q", tail), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "verdicts.store")
			s, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if err := s.Put(keyFor(i), makeVerdict(i)); err != nil {
					t.Fatal(err)
				}
			}
			s.Close()
			intact, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteString(tail)
			f.Close()

			r1, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if st := r1.Stats(); !st.TornTail || st.Recovered != 5 {
				t.Fatalf("first open stats %+v, want TornTail=true Recovered=5", st)
			}
			r1.Close()
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, intact) {
				t.Fatalf("truncation did not restore the intact prefix: %d bytes vs %d", len(after), len(intact))
			}

			r2, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer r2.Close()
			if st := r2.Stats(); st.TornTail || st.Recovered != 5 {
				t.Fatalf("second open stats %+v, want TornTail=false Recovered=5 (tail must be truncated exactly once)", st)
			}
		})
	}
}

// TestTornHeaderStartsOver: a crash before the header sync leaves an
// unterminated first line; the store must reset to empty, not error.
func TestTornHeaderStartsOver(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.store")
	if err := os.WriteFile(path, []byte(`{"v":1,"st`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 0 {
		t.Fatalf("Len = %d after torn header, want 0", s.Len())
	}
	if err := s.Put(keyFor(0), makeVerdict(0)); err != nil {
		t.Fatal(err)
	}
}

func TestForeignFormatRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.store")
	if err := os.WriteFile(path, []byte(`{"v":99,"store":"other"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("foreign format opened (err=%v)", err)
	}
}

// TestLastWriteWinsAndCompact: duplicate appends resolve to the newest
// verdict on recovery, and Compact squeezes them out while preserving
// every live verdict byte-for-byte and producing a deterministic file.
func TestLastWriteWinsAndCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.store")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(keyFor(i), makeVerdict(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite key 3 with key 7's verdict: the newer record must win.
	if err := s.Put(keyFor(3), makeVerdict(7)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Duplicates != 1 {
		t.Fatalf("Duplicates = %d, want 1", st.Duplicates)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	compacted, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(bytes.Split(bytes.TrimRight(compacted, "\n"), []byte("\n"))), 11; got != want {
		t.Fatalf("compacted file has %d lines, want %d (header + 10 records)", got, want)
	}
	// The store stays writable after compaction.
	if err := s.Put(keyFor(10), makeVerdict(10)); err != nil {
		t.Fatalf("Put after Compact: %v", err)
	}
	s.Close()

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, ok, err := r.Get(keyFor(3))
	if err != nil || !ok {
		t.Fatalf("Get after compact: ok=%v err=%v", ok, err)
	}
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(makeVerdict(7))
	if !bytes.Equal(gb, wb) {
		t.Fatalf("last-write-wins violated after compact:\n%s\nvs\n%s", gb, wb)
	}
	if r.Len() != 11 {
		t.Fatalf("Len after compact+put = %d, want 11", r.Len())
	}

	// Compacting the recovered store again must produce byte-identical
	// output for identical contents: the record order is sorted by key,
	// never map order.
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	first, _ := os.ReadFile(path)
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	second, _ := os.ReadFile(path)
	if !bytes.Equal(first, second) {
		t.Fatal("Compact output is not deterministic")
	}
}

func TestClosedStoreRejectsWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.store")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Put(keyFor(0), makeVerdict(0)); err == nil {
		t.Fatal("Put on closed store succeeded")
	}
	if err := s.Compact(); err == nil {
		t.Fatal("Compact on closed store succeeded")
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "verdicts.store"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("", makeVerdict(0)); err == nil {
		t.Fatal("empty key accepted")
	}
}

package applog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// val is a test record value with enough structure that byte identity
// is a real check.
type val struct {
	Package string   `json:"package"`
	Allow   bool     `json:"allow"`
	Tags    []string `json:"tags,omitempty"`
}

func makeVal(i int) val {
	v := val{Package: fmt.Sprintf("com.store.app%04d", i), Allow: i%3 != 0}
	if !v.Allow {
		v.Tags = []string{"draw-and-destroy", fmt.Sprintf("c%d", i)}
	}
	return v
}

func keyFor(i int) string { return fmt.Sprintf("hash%04d/tier%d", i, i%3) }

func openStore(t *testing.T, path string) *Store[val] {
	t.Helper()
	s, err := OpenStore[val](path, "teststore", "verdict")
	if err != nil {
		t.Fatal(err)
	}
	return s
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
			s := openStore(t, path)
			for i := 0; i < 5; i++ {
				if err := s.Put(keyFor(i), makeVal(i)); err != nil {
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

			r1 := openStore(t, path)
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

			r2 := openStore(t, path)
			defer r2.Close()
			if st := r2.Stats(); st.TornTail || st.Recovered != 5 {
				t.Fatalf("second open stats %+v, want TornTail=false Recovered=5 (tail must be truncated exactly once)", st)
			}
		})
	}
}

// TestTornHeaderStartsOver: a crash before the header sync leaves an
// unterminated first line; the log must reset to empty, not error.
func TestTornHeaderStartsOver(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.store")
	if err := os.WriteFile(path, []byte(`{"v":1,"st`), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, path)
	defer s.Close()
	if s.Len() != 0 {
		t.Fatalf("Len = %d after torn header, want 0", s.Len())
	}
	if err := s.Put(keyFor(0), makeVal(0)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if r := openStore(t, path); r.Len() != 1 {
		t.Fatalf("Len = %d after reopen, want 1", r.Len())
	}
}

// TestAppendAfterTornTailSurvives: the record appended after recovering
// over a torn line starts on a clean line, so the next Open replays it
// instead of finding it glued onto the fragment.
func TestAppendAfterTornTailSurvives(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.log")
	type hdr struct {
		Run string `json:"run"`
	}
	var got []string
	open := func() *Log {
		t.Helper()
		got = nil
		l, _, err := Open(path, "test", hdr{Run: "a"},
			func(line []byte) error {
				if string(line) != `{"run":"a"}` {
					return fmt.Errorf("foreign header %s", line)
				}
				return nil
			},
			func(line []byte) bool {
				var s string
				if json.Unmarshal(line, &s) != nil {
					return false
				}
				got = append(got, s)
				return true
			})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	l := open()
	if err := l.Append("one"); err != nil {
		t.Fatal(err)
	}
	l.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`"tw`)
	f.Close()

	l = open()
	if err := l.Append("two"); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l = open()
	defer l.Close()
	if strings.Join(got, ",") != "one,two" {
		t.Fatalf("replayed %q, want [one two]", got)
	}

	if err := os.WriteFile(path, []byte(`{"run":"b"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, "test", hdr{Run: "a"}, func([]byte) error { return fmt.Errorf("foreign") }, nil); err == nil {
		t.Fatal("header check error ignored")
	}
}

// TestCompactAtomicAndDeterministic: Compact swaps in header plus the
// given records through a temp file, leaves no temp file behind, keeps
// the log writable, and equal contents compact to equal bytes.
func TestCompactAtomicAndDeterministic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "verdicts.store")
	s := openStore(t, path)
	for i := 0; i < 10; i++ {
		if err := s.Put(keyFor(i%4), makeVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	first, _ := os.ReadFile(path)
	if got := bytes.Count(first, []byte("\n")); got != 5 {
		t.Fatalf("compacted file has %d lines, want header + 4 records", got)
	}
	if err := s.Put(keyFor(9), makeVal(9)); err != nil {
		t.Fatalf("Put after Compact: %v", err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r := openStore(t, path)
	defer r.Close()
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	second, _ := os.ReadFile(path)
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	third, _ := os.ReadFile(path)
	if !bytes.Equal(second, third) {
		t.Fatal("Compact output is not deterministic")
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("compaction left %d files in the directory, want 1", len(entries))
	}
	if v, ok, err := r.Get(keyFor(1)); err != nil || !ok || v.Package != makeVal(9).Package {
		t.Fatalf("last write lost across compaction: %+v ok=%v err=%v", v, ok, err)
	}

	r.Close()
	if err := r.Compact(); err == nil {
		t.Fatal("Compact on a closed log succeeded")
	}
	l, _, err := Open(path, "test", storeHeader{V: storeVersion, Store: "teststore"}, func([]byte) error { return nil }, func([]byte) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("Remove left the file (stat err %v)", err)
	}
}

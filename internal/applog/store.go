package applog

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// storeVersion is the keyed store's on-disk format: a header line then
// one {"k":key,"<field>":value} record per line.
const storeVersion = 1

// storeHeader is the first line of a keyed store file.
type storeHeader struct {
	V     int    `json:"v"`
	Store string `json:"store"`
}

// Stats is a snapshot of a keyed store's counters.
type Stats struct {
	// Entries is the number of distinct keys currently held.
	Entries int
	// Recovered is how many distinct keys Open replayed from disk.
	Recovered int
	// Appends counts Put calls that reached disk this session.
	Appends uint64
	// Duplicates counts records whose key was already present at
	// recovery (last-write-wins) plus re-Puts of a live key.
	Duplicates uint64
	// TornTail reports whether Open found and truncated a torn trailing
	// line. A second Open of the same file must report false.
	TornTail bool
}

// Store is a keyed, last-write-wins store of T values over a Log — the
// shape of the vetd verdict store and the sentryd detection journal.
// Each value is kept as the raw JSON written at append time, so
// recovery hands back the exact bytes that were stored. All methods
// are safe for concurrent use.
type Store[T any] struct {
	log   *Log
	name  string // error prefix and header "store" tag
	field string // the record's value field ("verdict", "detection")

	mu    sync.Mutex
	mem   map[string]json.RawMessage
	stats Stats
}

// OpenStore opens or creates the keyed store at path. A torn trailing
// record is truncated away; a file whose header names another store or
// format version is refused.
func OpenStore[T any](path, name, field string) (*Store[T], error) {
	s := &Store[T]{name: name, field: field, mem: make(map[string]json.RawMessage)}
	check := func(line []byte) error {
		var hdr storeHeader
		if err := json.Unmarshal(line, &hdr); err != nil {
			return fmt.Errorf("%s: %s: malformed header %q: %w", name, path, line, err)
		}
		if hdr.Store != name || hdr.V != storeVersion {
			return fmt.Errorf("%s: %s holds store=%q v=%d, this build reads store=%q v=%d; refusing to guess at a foreign format",
				name, path, hdr.Store, hdr.V, name, storeVersion)
		}
		return nil
	}
	replay := func(line []byte) bool {
		var rec map[string]json.RawMessage
		var key string
		if json.Unmarshal(line, &rec) != nil || json.Unmarshal(rec["k"], &key) != nil || key == "" || len(rec[field]) == 0 {
			return false
		}
		if _, dup := s.mem[key]; dup {
			s.stats.Duplicates++
		}
		s.mem[key] = rec[field]
		return true
	}
	log, torn, err := Open(path, name, storeHeader{V: storeVersion, Store: name}, check, replay)
	if err != nil {
		return nil, err
	}
	s.log = log
	s.stats.Recovered = len(s.mem)
	s.stats.TornTail = torn
	return s, nil
}

// record encodes one line: {"k":key,"<field>":raw}.
func (s *Store[T]) record(key string, raw json.RawMessage) json.RawMessage {
	k, _ := json.Marshal(key) // a string always encodes
	return fmt.Appendf(nil, `{"k":%s,"%s":%s}`, k, s.field, raw)
}

// Get returns the stored value for key, decoded from the exact bytes
// appended by Put, so a recovered store serves what the original
// process stored.
func (s *Store[T]) Get(key string) (T, bool, error) {
	var v T
	s.mu.Lock()
	raw, ok := s.mem[key]
	s.mu.Unlock()
	if !ok {
		return v, false, nil
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		return v, false, fmt.Errorf("%s: decode %s %q: %w", s.name, s.field, key, err)
	}
	return v, true, nil
}

// All returns every stored value, sorted by key — the recovery feed for
// a node's in-memory state.
func (s *Store[T]) All() ([]T, error) {
	s.mu.Lock()
	keys := s.sortedKeys()
	raws := make([]json.RawMessage, len(keys))
	for i, k := range keys {
		raws[i] = s.mem[k]
	}
	s.mu.Unlock()
	out := make([]T, len(keys))
	for i, raw := range raws {
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			return nil, fmt.Errorf("%s: decode %s %q: %w", s.name, s.field, keys[i], err)
		}
	}
	return out, nil
}

// Put appends v under key and fsyncs before returning, so a kill at any
// later instant preserves it. Re-putting a key is allowed
// (last-write-wins on recovery); Compact squeezes the duplicates out.
func (s *Store[T]) Put(key string, v T) error {
	if key == "" {
		return errors.New(s.name + ": empty key")
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("%s: encode %s %q: %w", s.name, s.field, key, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.log.Append(s.record(key, raw)); err != nil {
		return err
	}
	if _, dup := s.mem[key]; dup {
		s.stats.Duplicates++
	}
	s.mem[key] = raw
	s.stats.Appends++
	return nil
}

// Len reports the number of distinct keys held.
func (s *Store[T]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem)
}

// Stats returns a snapshot of the store's counters.
func (s *Store[T]) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.mem)
	return st
}

// Compact rewrites the store with exactly one record per key, newest
// content, keys sorted — so equal contents compact to equal bytes.
func (s *Store[T]) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := s.sortedKeys()
	recs := make([]any, len(keys))
	for i, k := range keys {
		recs[i] = s.record(k, s.mem[k])
	}
	if err := s.log.Compact(recs); err != nil {
		return err
	}
	s.stats.Duplicates = 0
	return nil
}

func (s *Store[T]) sortedKeys() []string {
	keys := make([]string, 0, len(s.mem))
	for k := range s.mem {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Close closes the append handle, keeping the file for a later Open.
func (s *Store[T]) Close() error { return s.log.Close() }

// Path returns the file the store persists to.
func (s *Store[T]) Path() string { return s.log.Path() }

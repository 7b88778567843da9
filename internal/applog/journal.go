// Package applog is the one crash-safe append-only log behind every
// durable file in the repository: the vetd verdict store, the sentryd
// detection journal, the experiment trial journal and the corpus-study
// checkpoint. A log is a JSONL file — one header line pinning the
// format and the owner's identity, then one fsynced record per line —
// so a process SIGKILLed at any instant, including mid-append, reopens
// it with every acknowledged record intact.
//
// Recovery contract: Open replays the file record by record. A line
// counts as intact only when it is newline-terminated and its owner
// accepts it; the first line that is not ends the log, and the file is
// truncated there, exactly once, so the next append starts on a clean
// line boundary instead of being glued onto a fragment. A torn header
// means nothing was ever durably stored, and the log starts over. Both
// creation and Compact write the whole file through a fsynced temp
// file, an atomic rename and a directory fsync, so a crash at any point
// leaves either the old file or the new one, never a mix.
//
// The package is deliberately free of wall-clock reads, goroutines and
// randomness: plain synchronous disk I/O guarded by one mutex, equally
// at home under the deterministic simulation rules and under a serving
// daemon. (This file's name keeps simlint's unsynced-write rule on it.)
package applog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Log is an open append-only log. All methods are safe for concurrent
// use.
type Log struct {
	mu   sync.Mutex
	f    *os.File
	path string
	name string // error prefix
	hdr  []byte // header line, without the newline
}

// Open opens the log at path, or creates it with header hdr. name
// prefixes errors. For an existing file, check vets its header line —
// its error (a foreign format, another run's identity) is returned
// as-is — and replay receives every record line in order; the first
// line replay rejects, or that lacks its newline, ends the log.
// torn reports whether Open truncated anything.
func Open(path, name string, hdr any, check func(line []byte) error, replay func(line []byte) bool) (l *Log, torn bool, err error) {
	h, err := json.Marshal(hdr)
	if err != nil {
		return nil, false, fmt.Errorf("%s: encode header: %w", name, err)
	}
	l = &Log{path: path, name: name, hdr: h}
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, false, fmt.Errorf("%s: read %s: %w", name, path, err)
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		// Absent, empty, or a torn header: nothing was ever durably
		// stored, so start over.
		if err := l.rewrite(nil); err != nil {
			return nil, false, err
		}
		return l, len(data) > 0, nil
	}
	if err := check(data[:nl]); err != nil {
		return nil, false, err
	}
	end := nl + 1 // just past the last intact line
	for rest := data[end:]; len(rest) > 0; {
		n := bytes.IndexByte(rest, '\n')
		if n < 0 || !replay(rest[:n]) {
			break // torn write: nothing after it can be trusted
		}
		end += n + 1
		rest = rest[n+1:]
	}
	if torn = end < len(data); torn {
		if err := os.Truncate(path, int64(end)); err != nil {
			return nil, false, fmt.Errorf("%s: truncate torn tail of %s: %w", name, path, err)
		}
	}
	if l.f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, false, fmt.Errorf("%s: open %s for append: %w", name, path, err)
	}
	return l, torn, nil
}

// Append encodes rec as one line and fsyncs before returning, so a kill
// at any later instant preserves it.
func (l *Log) Append(rec any) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("%s: encode record: %w", l.name, err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("%s: %s is closed", l.name, l.path)
	}
	if _, err := l.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("%s: append: %w", l.name, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("%s: sync: %w", l.name, err)
	}
	return nil
}

// Compact replaces the file with the header plus recs, one line each.
func (l *Log) Compact(recs []any) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("%s: %s is closed", l.name, l.path)
	}
	return l.rewrite(recs)
}

// rewrite replaces the file with the header plus recs: the new contents
// are written to a temp file, fsynced, and renamed over the log, and
// the directory is fsynced after the rename so the swap itself is
// durable. A crash at any point leaves the old file or the new one,
// never a mix. The append handle is reopened on the new file.
func (l *Log) rewrite(recs []any) error {
	dir := filepath.Dir(l.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(l.path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("%s: create %s: %w", l.name, l.path, err)
	}
	fail := func(e error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("%s: write %s: %w", l.name, l.path, e)
	}
	buf := append(append([]byte(nil), l.hdr...), '\n')
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return fail(err)
		}
		buf = append(append(buf, line...), '\n')
	}
	if _, err := tmp.Write(buf); err != nil {
		return fail(err)
	}
	if err := tmp.Chmod(0o644); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp.Name(), l.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("%s: rename over %s: %w", l.name, l.path, err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	// The old handle, if any, points at the unlinked previous file.
	if l.f != nil {
		l.f.Close()
	}
	if l.f, err = os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		l.f = nil
		return fmt.Errorf("%s: open %s for append: %w", l.name, l.path, err)
	}
	return nil
}

// Close closes the append handle, keeping the file for a later Open.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// Remove closes the log and deletes its file — the end of a run whose
// every record has been consumed.
func (l *Log) Remove() error {
	l.Close()
	if err := os.Remove(l.path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("%s: remove %s: %w", l.name, l.path, err)
	}
	return nil
}

// Path returns the file the log persists to.
func (l *Log) Path() string { return l.path }

package sentry

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"
)

// The sentry wire format carries device-stream transaction records — the
// per-device stream of Binder deliveries that the §VII-A defense reads —
// as one text line per record:
//
//	s1 <device> <seq> <method> <at_ns>\n
//
// where <device> and <method> are tokens over [A-Za-z0-9._-] (1..64
// bytes), <seq> is the device's strictly-increasing record sequence
// number (canonical decimal uint64) and <at_ns> is the record's virtual
// stream timestamp in nanoseconds (canonical decimal, fits in int64).
// "Canonical decimal" means no sign and no redundant leading zeros, so
// encoding is a bijection on valid records: for every line DecodeLine
// accepts, AppendRecord(nil, DecodeLine(line)) reproduces the input
// bytes exactly — the round-trip invariance the fuzz target pins.
//
// A batch is a concatenation of encoded lines. The final line must be
// newline-terminated; a batch whose last line lacks the terminator was
// torn mid-write (a crashed uploader, a truncated body) and is rejected
// as a whole with ErrTornBatch so a partial record can never be ingested
// as a shorter one.

// Method names carried on the wire. AddView/RemoveView mirror the
// simulator's System Server surface; EnqueueNotification is the
// notification-abuse extension (Knock-Knock) — the simulator does not
// emit it yet, but fleet streams and the engine's notify-flood rule do.
const (
	MethodAddView             = "addView"
	MethodRemoveView          = "removeView"
	MethodEnqueueNotification = "enqueueNotification"
)

// wireVersion tags every record line; a decoder refusing unknown
// versions is what lets the format evolve without silent misparses.
const wireVersion = "s1"

// maxTokenLen bounds device and method tokens.
const maxTokenLen = 64

// ErrTornBatch marks a batch whose final record line is not
// newline-terminated: the upload was cut mid-record.
var ErrTornBatch = errors.New("sentry: torn batch (final record line unterminated)")

// Record is one device-stream transaction record.
type Record struct {
	// Device identifies the reporting device.
	Device string
	// Seq is the device's record sequence number; the engine enforces
	// strict per-device monotonicity, so replayed or reordered uploads
	// are rejected instead of double-counted (gaps are fine — a shed
	// batch legitimately skips its sequence range).
	Seq uint64
	// Method is the observed Binder method.
	Method string
	// At is the record's virtual stream timestamp.
	At time.Duration
}

// ValidToken reports whether s is a legal device/method token —
// exported for the ring router, which validates device IDs before
// hashing them onto the ring.
func ValidToken(s string) bool { return validToken(s) }

// validToken reports whether s is a legal device/method token.
func validToken(s string) bool {
	if len(s) == 0 || len(s) > maxTokenLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Validate checks the record's fields against the wire constraints.
func (r Record) Validate() error {
	if !validToken(r.Device) {
		return fmt.Errorf("sentry: bad device token %q", r.Device)
	}
	if !validToken(r.Method) {
		return fmt.Errorf("sentry: bad method token %q", r.Method)
	}
	if r.At < 0 {
		return fmt.Errorf("sentry: negative timestamp %d", r.At)
	}
	return nil
}

// AppendRecord appends the record's wire line (newline included) to dst
// and returns the extended slice; an invalid record is refused.
func AppendRecord(dst []byte, r Record) ([]byte, error) {
	if err := r.Validate(); err != nil {
		return dst, err
	}
	dst = append(dst, wireVersion...)
	dst = append(dst, ' ')
	dst = append(dst, r.Device...)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, r.Seq, 10)
	dst = append(dst, ' ')
	dst = append(dst, r.Method...)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(r.At), 10)
	dst = append(dst, '\n')
	return dst, nil
}

// EncodeBatch renders a slice of records as one wire batch.
func EncodeBatch(recs []Record) ([]byte, error) {
	var dst []byte
	for i, r := range recs {
		var err error
		if dst, err = AppendRecord(dst, r); err != nil {
			return nil, fmt.Errorf("sentry: record %d: %w", i, err)
		}
	}
	return dst, nil
}

// canonicalUint parses a canonical decimal uint64: digits only, no
// redundant leading zero. Rejecting non-canonical spellings ("007",
// "+7") is what makes Encode∘DecodeLine the identity on valid lines.
func canonicalUint(tok []byte) (uint64, error) {
	if len(tok) == 0 {
		return 0, errors.New("empty number")
	}
	if len(tok) > 1 && tok[0] == '0' {
		return 0, fmt.Errorf("non-canonical number %q", tok)
	}
	return strconv.ParseUint(string(tok), 10, 64)
}

// DecodeLine parses one wire line (without its trailing newline).
func DecodeLine(line []byte) (Record, error) {
	var r Record
	fields := bytes.Split(line, []byte{' '})
	if len(fields) != 5 {
		return r, fmt.Errorf("sentry: record has %d fields, want 5", len(fields))
	}
	if string(fields[0]) != wireVersion {
		return r, fmt.Errorf("sentry: unknown wire version %q", fields[0])
	}
	r.Device = string(fields[1])
	seq, err := canonicalUint(fields[2])
	if err != nil {
		return r, fmt.Errorf("sentry: bad seq: %v", err)
	}
	r.Seq = seq
	r.Method = string(fields[3])
	at, err := canonicalUint(fields[4])
	if err != nil {
		return r, fmt.Errorf("sentry: bad timestamp: %v", err)
	}
	if at > math.MaxInt64 {
		return r, fmt.Errorf("sentry: timestamp %d overflows int64", at)
	}
	r.At = time.Duration(at)
	if err := r.Validate(); err != nil {
		return r, err
	}
	return r, nil
}

// DecodeBatch parses a wire batch into records. Any malformed line
// fails the whole batch — conformance over partial progress — and a
// missing final newline fails it with ErrTornBatch.
func DecodeBatch(b []byte) ([]Record, error) {
	if len(b) == 0 {
		return nil, nil
	}
	if b[len(b)-1] != '\n' {
		return nil, ErrTornBatch
	}
	var recs []Record
	for ln := 0; len(b) > 0; ln++ {
		i := bytes.IndexByte(b, '\n')
		line := b[:i]
		b = b[i+1:]
		r, err := DecodeLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

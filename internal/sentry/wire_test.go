package sentry

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestWireRoundTrip(t *testing.T) {
	recs := []Record{
		{Device: "dev-00001", Seq: 0, Method: MethodAddView, At: 0},
		{Device: "dev-00001", Seq: 1, Method: MethodRemoveView, At: 137 * time.Millisecond},
		{Device: "a.b_c-D", Seq: 18446744073709551615, Method: MethodEnqueueNotification, At: 1<<62 - 1},
	}
	for _, r := range recs {
		line, err := AppendRecord(nil, r)
		if err != nil {
			t.Fatalf("AppendRecord(%+v): %v", r, err)
		}
		if line[len(line)-1] != '\n' {
			t.Fatalf("AppendRecord(%+v) not newline-terminated: %q", r, line)
		}
		got, err := DecodeLine(line[:len(line)-1])
		if err != nil {
			t.Fatalf("DecodeLine(%q): %v", line, err)
		}
		if got != r {
			t.Fatalf("round trip drifted: %+v -> %+v", r, got)
		}
	}
	batch, err := EncodeBatch(recs)
	if err != nil {
		t.Fatalf("EncodeBatch: %v", err)
	}
	got, err := DecodeBatch(batch)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d drifted: %+v -> %+v", i, recs[i], got[i])
		}
	}
	// Decode∘Encode is byte-identity on valid batches.
	re, err := EncodeBatch(got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(re, batch) {
		t.Fatalf("re-encoded batch differs:\n%q\nvs\n%q", re, batch)
	}
}

func TestWireEncodeRejectsInvalid(t *testing.T) {
	for _, r := range []Record{
		{Device: "", Method: MethodAddView},
		{Device: "dev with space", Method: MethodAddView},
		{Device: strings.Repeat("x", 65), Method: MethodAddView},
		{Device: "dev", Method: ""},
		{Device: "dev", Method: "addView", At: -1},
	} {
		if _, err := AppendRecord(nil, r); err == nil {
			t.Errorf("AppendRecord(%+v) accepted an invalid record", r)
		}
	}
}

func TestWireDecodeLineRejectsMalformed(t *testing.T) {
	for _, tc := range []struct {
		name, line string
	}{
		{"empty", ""},
		{"too few fields", "s1 dev 0 addView"},
		{"too many fields", "s1 dev 0 addView 0 extra"},
		{"unknown version", "s2 dev 0 addView 0"},
		{"leading-zero seq", "s1 dev 007 addView 0"},
		{"signed seq", "s1 dev +7 addView 0"},
		{"non-numeric seq", "s1 dev x addView 0"},
		{"empty seq", "s1 dev  addView 0"},
		{"leading-zero timestamp", "s1 dev 0 addView 01"},
		{"timestamp overflows int64", "s1 dev 0 addView 9223372036854775808"},
		{"bad device token", "s1 d#v 0 addView 0"},
		{"double space", "s1 dev 0  addView 0"},
	} {
		if _, err := DecodeLine([]byte(tc.line)); err == nil {
			t.Errorf("%s: DecodeLine(%q) accepted a malformed line", tc.name, tc.line)
		}
	}
}

func TestWireDecodeBatch(t *testing.T) {
	if recs, err := DecodeBatch(nil); err != nil || recs != nil {
		t.Fatalf("DecodeBatch(nil) = %v, %v; want nil, nil", recs, err)
	}
	if _, err := DecodeBatch([]byte("s1 dev 0 addView 0")); !errors.Is(err, ErrTornBatch) {
		t.Fatalf("unterminated batch: got %v, want ErrTornBatch", err)
	}
	if _, err := DecodeBatch([]byte("s1 dev 0 addView 0\ns1 dev 1 addView")); !errors.Is(err, ErrTornBatch) {
		t.Fatalf("torn second line: got %v, want ErrTornBatch", err)
	}
	// One malformed line fails the whole batch, with its line number.
	_, err := DecodeBatch([]byte("s1 dev 0 addView 0\nbogus line here yes no\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("malformed line 2: got %v, want error naming line 2", err)
	}
}

// TestWireFleetBatchesRoundTrip pushes every generated fleet stream
// through the codec: the wire format must carry everything the
// generator can produce.
func TestWireFleetBatchesRoundTrip(t *testing.T) {
	fl, err := GenerateFleet(FleetConfig{Devices: 40, Attackers: 3, NotifAbusers: 2, Span: 5 * time.Second, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range fl.Devices {
		b, err := EncodeBatch(d.Records)
		if err != nil {
			t.Fatalf("%s: encode: %v", d.ID, err)
		}
		got, err := DecodeBatch(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", d.ID, err)
		}
		if len(got) != len(d.Records) {
			t.Fatalf("%s: %d records round-tripped to %d", d.ID, len(d.Records), len(got))
		}
		for i := range got {
			if got[i] != d.Records[i] {
				t.Fatalf("%s record %d drifted: %+v -> %+v", d.ID, i, d.Records[i], got[i])
			}
		}
	}
}

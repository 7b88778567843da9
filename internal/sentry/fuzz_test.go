package sentry

import (
	"bytes"
	"testing"
)

// FuzzWireDecode fuzzes the batch decoder with two oracles:
//
//  1. No input may panic the decoder (torn, binary, adversarial bytes
//     all return errors).
//  2. Round-trip invariance: any batch the decoder accepts must
//     re-encode to exactly the input bytes — the wire format is
//     canonical, so decode∘encode is the identity on its image.
//
// The committed corpus under testdata/fuzz/FuzzWireDecode seeds the
// interesting shapes: valid batches, torn tails, non-canonical
// numbers, wrong versions, oversized tokens.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte("s1 dev-00001 0 addView 0\n"))
	f.Add([]byte("s1 dev-00001 0 addView 0\ns1 dev-00001 1 removeView 137000000\n"))
	f.Add([]byte("s1 a.b_c-D 18446744073709551615 enqueueNotification 9223372036854775807\n"))
	f.Add([]byte("s1 dev 0 addView 0"))         // torn
	f.Add([]byte("s1 dev 007 addView 0\n"))     // non-canonical seq
	f.Add([]byte("s2 dev 0 addView 0\n"))       // unknown version
	f.Add([]byte("s1 dev 0 addView 01\n"))      // non-canonical timestamp
	f.Add([]byte("s1 dev 0 addView 0 extra\n")) // field count
	f.Add([]byte("\n"))
	f.Add([]byte(""))
	f.Add([]byte("s1  0 addView 0\n")) // empty device token
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeBatch(data)
		if err != nil {
			return
		}
		re, err := EncodeBatch(recs)
		if err != nil {
			t.Fatalf("decoded batch failed to re-encode: %v\ninput: %q", err, data)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("round trip not byte-identical:\ninput:     %q\nre-encoded: %q", data, re)
		}
		// A second decode of the re-encoding must agree record-for-record.
		again, err := DecodeBatch(re)
		if err != nil {
			t.Fatalf("re-encoded batch failed to decode: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("second decode yielded %d records, want %d", len(again), len(recs))
		}
		for i := range recs {
			if again[i] != recs[i] {
				t.Fatalf("record %d drifted across decode cycles: %+v vs %+v", i, recs[i], again[i])
			}
		}
	})
}

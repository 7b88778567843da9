package load

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/sentry"
)

// TestReplayFleetKeepsDeviceOrder replays a fleet from several clients
// against a server that sheds the first send of every batch: each
// device's batches must still arrive whole and in sequence order, and
// every batch must count as one retried success.
func TestReplayFleetKeepsDeviceOrder(t *testing.T) {
	fl, err := sentry.GenerateFleet(sentry.FleetConfig{Devices: 24, Attackers: 2, NotifAbusers: 1, Span: 6 * time.Second, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	type batchKey struct {
		device string
		seq    uint64 // the batch's first sequence number
	}
	var mu sync.Mutex
	got := map[string][]uint64{} // accepted sequence numbers per device
	shed := map[batchKey]bool{}  // batches already shed once
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		recs, err := sentry.DecodeBatch(body)
		if err != nil || len(recs) == 0 {
			http.Error(w, "bad batch", http.StatusBadRequest)
			return
		}
		dev := r.URL.Query().Get("device")
		key := batchKey{dev, recs[0].Seq}
		mu.Lock()
		defer mu.Unlock()
		if !shed[key] {
			shed[key] = true
			w.Header().Set("Retry-After", "0")
			http.Error(w, "shed", http.StatusTooManyRequests)
			return
		}
		for _, rec := range recs {
			got[dev] = append(got[dev], rec.Seq)
		}
	}))
	defer ts.Close()

	c := ReplayFleet(ts.Client(), ts.URL, fl, ReplayOptions{Clients: 5, Batch: 3, Retry429: 1, Seed: 9})
	batches := 0
	for _, d := range fl.Devices {
		batches += len(segments(d.Records, 3))
		seqs := got[d.ID]
		if len(seqs) != len(d.Records) {
			t.Fatalf("%s: server accepted %d of %d records", d.ID, len(seqs), len(d.Records))
		}
		for i, s := range seqs {
			if s != uint64(i) {
				t.Fatalf("%s: record %d arrived with seq %d: batches out of order", d.ID, i, s)
			}
		}
	}
	if batches < 2*len(fl.Devices) {
		t.Fatalf("%d batches over %d devices: too few to interleave", batches, len(fl.Devices))
	}
	if want := (Counts{OK: batches, Retried: batches}); c != want {
		t.Fatalf("counts %+v, want %+v", c, want)
	}
}

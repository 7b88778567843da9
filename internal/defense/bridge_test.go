package defense

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/binder"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/sentry"
	"repro/internal/sysserver"
	"repro/internal/wm"
)

// TestBridgeMatchesSentryServer runs the overlay attack next to a benign
// floating widget on one stack, then replays the overlay deliveries a bus
// observer recorded as per-app s1 batches through a sentry.Server over
// HTTP. The service's report must carry exactly the detections the
// in-simulator detector made, field for field.
func TestBridgeMatchesSentryServer(t *testing.T) {
	st := assemble(t)
	const musicApp binder.ProcessID = "com.music.player"
	st.WM.GrantOverlayPermission(musicApp)
	det, err := NewIPCDetector()
	if err != nil {
		t.Fatalf("NewIPCDetector: %v", err)
	}
	if err := det.Install(st, false); err != nil {
		t.Fatalf("Install: %v", err)
	}
	// Per-app record streams, numbered in delivery order.
	streams := make(map[string][]sentry.Record)
	st.Bus.Observe(func(tx binder.Transaction) {
		if tx.Method != sysserver.MethodAddView && tx.Method != sysserver.MethodRemoveView {
			return
		}
		dev := string(tx.From)
		streams[dev] = append(streams[dev], sentry.Record{
			Device: dev, Seq: uint64(len(streams[dev]) + 1), Method: tx.Method, At: tx.DeliveredAt,
		})
	})
	atk, err := core.NewOverlayAttack(st, core.OverlayAttackConfig{
		App: evilApp, D: 280 * time.Millisecond, Bounds: screenOf(st),
	})
	if err != nil {
		t.Fatalf("NewOverlayAttack: %v", err)
	}
	if err := atk.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	st.Clock.MustAfter(10*time.Second, "stop", atk.Stop)
	for i := 0; i < 6; i++ {
		h := uint64(i + 1)
		st.Clock.MustAfter(time.Duration(i)*5*time.Second, "widget-on", func() {
			if _, err := st.Bus.Call(musicApp, binder.SystemServer, sysserver.MethodAddView, sysserver.AddViewRequest{
				Handle: h, Type: wm.TypeApplicationOverlay, Bounds: geom.RectWH(100, 100, 300, 300),
			}); err != nil {
				t.Errorf("addView: %v", err)
			}
		})
		st.Clock.MustAfter(time.Duration(i)*5*time.Second+2*time.Second, "widget-off", func() {
			if _, err := st.Bus.Call(musicApp, binder.SystemServer, sysserver.MethodRemoveView, sysserver.RemoveViewRequest{Handle: h}); err != nil {
				t.Errorf("removeView: %v", err)
			}
		})
	}
	if err := st.Clock.RunFor(35 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if err := det.Err(); err != nil {
		t.Fatalf("detector: %v", err)
	}
	if len(streams[string(evilApp)]) == 0 || len(streams[string(musicApp)]) == 0 {
		t.Fatalf("observer lacks overlay traffic from both apps: %d streams", len(streams))
	}

	srv, err := sentry.NewServer(sentry.ServerConfig{})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	const batchLen = 32
	for dev, recs := range streams {
		for len(recs) > 0 {
			n := min(batchLen, len(recs))
			body, err := sentry.EncodeBatch(recs[:n])
			if err != nil {
				t.Fatalf("EncodeBatch %s: %v", dev, err)
			}
			resp, err := http.Post(ts.URL+"/v1/ingest?device="+url.QueryEscape(dev), "text/plain", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("ingest %s: %v", dev, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("ingest %s: status %d", dev, resp.StatusCode)
			}
			recs = recs[n:]
		}
	}

	resp, err := http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	defer resp.Body.Close()
	var snap sentry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode report: %v", err)
	}
	got := snap.Detections
	sort.Slice(got, func(i, j int) bool {
		if got[i].At != got[j].At {
			return got[i].At < got[j].At
		}
		return got[i].Device < got[j].Device
	})
	want := det.Detections()
	if len(want) != 1 || want[0].Device != string(evilApp) {
		t.Fatalf("detector flagged %+v, want only %s", want, evilApp)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("service detections differ from the simulator's:\n got %+v\nwant %+v", got, want)
	}
}

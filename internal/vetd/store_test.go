package vetd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/defense"
	"repro/internal/dexir"
	"repro/internal/vetstore"
)

func openStore(t *testing.T, path string) *vetstore.Store {
	t.Helper()
	s, err := vetstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStorePersistsAcrossRestart is the serving-side restatement of the
// vetstore crash test: a second server opened on the same store must
// serve every verdict the first one computed — byte-identical on Core,
// zero new analyses — exactly what lets a SIGKILLed ring peer rejoin
// without re-analyzing its keyspace.
func TestStorePersistsAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.store")
	apks := corpusApps(t, 40)

	st1 := openStore(t, path)
	s1 := New(Config{Store: st1})
	want := make(map[string][]byte, len(apks))
	for _, apk := range apks {
		rec := postJSON(t, s1, "/v1/vet", VetRequest{App: apk.IR})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", apk.Package, rec.Code)
		}
		core, err := decodeVerdict(t, rec).Core()
		if err != nil {
			t.Fatal(err)
		}
		want[apk.Package] = core
	}
	if got := s1.Metrics().Analyses.Load(); got != uint64(len(apks)) {
		t.Fatalf("first server ran %d analyses, want %d", got, len(apks))
	}
	s1.Close()
	st1.Close()

	st2 := openStore(t, path)
	defer st2.Close()
	if st2.Len() != len(apks) {
		t.Fatalf("store recovered %d verdicts, want %d", st2.Len(), len(apks))
	}
	s2 := New(Config{Store: st2})
	defer s2.Close()
	for _, apk := range apks {
		rec := postJSON(t, s2, "/v1/vet", VetRequest{App: apk.IR})
		if rec.Code != http.StatusOK {
			t.Fatalf("restart %s: status %d", apk.Package, rec.Code)
		}
		v := decodeVerdict(t, rec)
		if !v.Cached {
			t.Fatalf("restart %s: store hit not marked cached", apk.Package)
		}
		core, err := v.Core()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(core, want[apk.Package]) {
			t.Fatalf("restart %s: verdict differs:\n%s\nvs\n%s", apk.Package, core, want[apk.Package])
		}
	}
	m := s2.Metrics()
	if m.Analyses.Load() != 0 {
		t.Fatalf("restarted server re-analyzed %d stored keys", m.Analyses.Load())
	}
	if m.StoreHits.Load() != uint64(len(apks)) {
		t.Fatalf("store hits %d, want %d", m.StoreHits.Load(), len(apks))
	}
	if m.Hits.Load()+m.Misses.Load()+m.Sheds.Load() != m.Requests.Load() {
		t.Fatalf("store hits broke the accounting contract: %+v", s2.Snapshot())
	}
	// A repeat request is a memory-cache hit now: the store hit promoted
	// the verdict, so StoreHits stays flat.
	postJSON(t, s2, "/v1/vet", VetRequest{App: apks[0].IR})
	if m.StoreHits.Load() != uint64(len(apks)) {
		t.Fatal("promoted verdict re-read from the store instead of the cache")
	}
}

// TestStoreKeyedByTier: a store written at tier0 must not serve a tier2
// server — the tier is part of the key, so the tier2 server re-analyzes.
func TestStoreKeyedByTier(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.store")
	app := corpusApps(t, 1)[0].IR

	st1 := openStore(t, path)
	s1 := New(Config{Store: st1, Tier: 0})
	postJSON(t, s1, "/v1/vet", VetRequest{App: app})
	s1.Close()
	st1.Close()

	st2 := openStore(t, path)
	defer st2.Close()
	s2 := New(Config{Store: st2, Tier: 2})
	defer s2.Close()
	rec := postJSON(t, s2, "/v1/vet", VetRequest{App: app})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	m := s2.Metrics()
	if m.StoreHits.Load() != 0 || m.Analyses.Load() != 1 {
		t.Fatalf("tier2 server served a tier0 verdict (storeHits=%d analyses=%d)",
			m.StoreHits.Load(), m.Analyses.Load())
	}
	if got := decodeVerdict(t, rec).Tier; got != "tier2" {
		t.Fatalf("verdict tier %q, want tier2", got)
	}
	if st2.Len() != 2 {
		t.Fatalf("store holds %d keys, want 2 (one per tier)", st2.Len())
	}
}

// TestReadyzReflectsQueuePressure: /readyz must flip to 503 while the
// admission queue is at the shed threshold and back to 200 once it
// drains — /healthz stays 200 throughout (liveness vs readiness).
func TestReadyzReflectsQueuePressure(t *testing.T) {
	block := make(chan struct{})
	s := newServer(Config{Workers: 1, QueueDepth: 1},
		func(app *dexir.App) (defense.VetVerdict, error) {
			<-block
			return defense.VetVerdict{Package: app.Package, Allow: true}, nil
		})
	defer s.Close()

	if rec := getPath(s, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("idle readyz: %d %q", rec.Code, rec.Body.String())
	}

	// One request occupies the worker, one fills the single queue slot.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			postJSON(t, s, "/v1/vet", VetRequest{App: testApp(i)})
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.depth() < 1 {
		if time.Now().After(deadline) {
			close(block)
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
	rec := getPath(s, "/readyz")
	if rec.Code != http.StatusServiceUnavailable || !bytes.Contains(rec.Body.Bytes(), []byte("shedding")) {
		t.Fatalf("saturated readyz: %d %q, want 503 shedding", rec.Code, rec.Body.String())
	}
	if rec := getPath(s, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz went unready under load: %d (liveness must not track queue pressure)", rec.Code)
	}

	close(block)
	wg.Wait()
	if rec := getPath(s, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("drained readyz: %d %q", rec.Code, rec.Body.String())
	}
	if s.Metrics().ReadyCalls.Load() != 3 {
		t.Fatalf("ready calls %d, want 3", s.Metrics().ReadyCalls.Load())
	}
}

// TestReadyzAfterClose: a shut-down server reports not ready with a
// distinct state, so probes can tell draining from overload.
func TestReadyzAfterClose(t *testing.T) {
	s := New(Config{})
	s.Close()
	rec := getPath(s, "/readyz")
	if rec.Code != http.StatusServiceUnavailable || !bytes.Contains(rec.Body.Bytes(), []byte("shutting-down")) {
		t.Fatalf("closed readyz: %d %q, want 503 shutting-down", rec.Code, rec.Body.String())
	}
}

// TestStatsServiceField: the /stats payload names its service so load
// generators can pick the right accounting invariant.
func TestStatsServiceField(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	var st Stats
	if err := json.Unmarshal(getPath(s, "/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Service != "vetd" {
		t.Fatalf("service %q, want vetd", st.Service)
	}
}

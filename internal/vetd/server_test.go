package vetd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/appstore"
	"repro/internal/defense"
	"repro/internal/dexir"
)

// testApp builds a tiny distinct benign app.
func testApp(i int) *dexir.App {
	pkg := fmt.Sprintf("com.test.app%03d", i)
	cls := dexir.ClassName(pkg, "Main")
	onCreate := dexir.Ref(cls, "onCreate", "(Landroid/os/Bundle;)V")
	return &dexir.App{
		Package: pkg,
		Classes: []dexir.Class{{Name: cls, Methods: []dexir.Method{
			{Ref: onCreate, Body: []dexir.Instruction{{Op: dexir.OpNop}}},
		}}},
		Components: []dexir.Component{
			{Name: cls, Kind: dexir.Activity, EntryPoints: []dexir.MethodRef{onCreate}},
		},
	}
}

func postJSON(t *testing.T, s *Server, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(b))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func getPath(s *Server, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func decodeVerdict(t *testing.T, rec *httptest.ResponseRecorder) Verdict {
	t.Helper()
	var v Verdict
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("decode verdict: %v (body %q)", err, rec.Body.String())
	}
	return v
}

// corpusApps pulls a slice of realistic apps (benign and capable) from
// the shared seeded corpus.
func corpusApps(t *testing.T, n int) []appstore.APK {
	t.Helper()
	apks, err := appstore.GenerateApps(42, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	return apks
}

func TestVetServesDefenseVerdicts(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	deny := 0
	for _, apk := range corpusApps(t, 200) {
		rec := postJSON(t, s, "/v1/vet", VetRequest{App: apk.IR})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", apk.Package, rec.Code, rec.Body.String())
		}
		got := decodeVerdict(t, rec)
		want, err := defense.Vet(apk.IR)
		if err != nil {
			t.Fatal(err)
		}
		wantHash, _ := HashIR(apk.IR)
		gotCore, _ := got.Core()
		wantCore, _ := NewVerdict(want, wantHash, false).Core()
		if !bytes.Equal(gotCore, wantCore) {
			t.Fatalf("%s: served verdict differs from direct defense.Vet:\n%s\nvs\n%s",
				apk.Package, gotCore, wantCore)
		}
		if got.IRHash != wantHash {
			t.Fatalf("%s: hash %s, want %s", apk.Package, got.IRHash, wantHash)
		}
		if !got.Allow {
			deny++
		}
	}
	if deny == 0 {
		t.Error("no deny verdicts in 200 corpus apps; corpus slice too benign to exercise findings")
	}
}

func TestVetCacheHitIsByteIdenticalOnCore(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	app := corpusApps(t, 1)[0].IR
	first := decodeVerdict(t, postJSON(t, s, "/v1/vet", VetRequest{App: app}))
	second := decodeVerdict(t, postJSON(t, s, "/v1/vet", VetRequest{App: app}))
	if first.Cached || !second.Cached {
		t.Fatalf("cached flags = %v, %v; want false, true", first.Cached, second.Cached)
	}
	a, _ := first.Core()
	b, _ := second.Core()
	if !bytes.Equal(a, b) {
		t.Fatalf("hit and miss cores differ:\n%s\nvs\n%s", a, b)
	}
	m := s.Metrics()
	if m.Hits.Load() != 1 || m.Misses.Load() != 1 || m.Requests.Load() != 2 {
		t.Fatalf("counters hits=%d misses=%d requests=%d", m.Hits.Load(), m.Misses.Load(), m.Requests.Load())
	}
}

func TestBatchPreservesOrderAndCoalesces(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	apks := corpusApps(t, 8)
	apps := make([]*dexir.App, 0, 10)
	for _, a := range apks {
		apps = append(apps, a.IR)
	}
	apps = append(apps, apks[0].IR, apks[3].IR) // duplicates
	rec := postJSON(t, s, "/v1/vet/batch", BatchRequest{Apps: apps})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body.String())
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Verdicts) != len(apps) {
		t.Fatalf("%d verdicts, want %d", len(resp.Verdicts), len(apps))
	}
	for i, item := range resp.Verdicts {
		if item.Status != http.StatusOK || item.Verdict == nil {
			t.Fatalf("item %d: %+v", i, item)
		}
		if item.Verdict.Package != apps[i].Package {
			t.Fatalf("item %d: package %s, want %s (order not preserved)", i, item.Verdict.Package, apps[i].Package)
		}
	}
	// The duplicates must not have cost extra analyses.
	if got := s.Metrics().Analyses.Load(); got != uint64(len(apks)) {
		t.Fatalf("%d analyses for %d distinct apps", got, len(apks))
	}
	m := s.Metrics()
	if m.Requests.Load() != uint64(len(apps)) {
		t.Fatalf("requests %d, want %d (batch items must classify individually)", m.Requests.Load(), len(apps))
	}
	if m.Hits.Load()+m.Misses.Load()+m.Sheds.Load() != m.Requests.Load() {
		t.Fatalf("accounting broken: %+v", s.Snapshot())
	}
}

func TestBadRequests(t *testing.T) {
	s := New(Config{MaxBatch: 4})
	defer s.Close()
	cases := []struct {
		name string
		do   func() *httptest.ResponseRecorder
	}{
		{"garbage body", func() *httptest.ResponseRecorder {
			req := httptest.NewRequest("POST", "/v1/vet", strings.NewReader("{nope"))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			return rec
		}},
		{"missing app", func() *httptest.ResponseRecorder {
			return postJSON(t, s, "/v1/vet", VetRequest{})
		}},
		{"empty batch", func() *httptest.ResponseRecorder {
			return postJSON(t, s, "/v1/vet/batch", BatchRequest{})
		}},
		{"oversized batch", func() *httptest.ResponseRecorder {
			apps := make([]*dexir.App, 5)
			for i := range apps {
				apps[i] = testApp(i)
			}
			return postJSON(t, s, "/v1/vet/batch", BatchRequest{Apps: apps})
		}},
	}
	for _, tc := range cases {
		if rec := tc.do(); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, rec.Code)
		}
	}
	if got := s.Metrics().BadRequests.Load(); got != uint64(len(cases)) {
		t.Errorf("bad request counter %d, want %d", got, len(cases))
	}
	if s.Metrics().Requests.Load() != 0 {
		t.Error("bad requests leaked into the classified request counter")
	}
}

func TestOverloadShedsWithRetryAfter(t *testing.T) {
	block := make(chan struct{})
	s := newServer(Config{Workers: 1, QueueDepth: 1, RetryAfter: 3 * time.Second},
		func(app *dexir.App) (defense.VetVerdict, error) {
			<-block
			return defense.VetVerdict{Package: app.Package, Allow: true}, nil
		})
	defer s.Close()
	defer close(block)

	const n = 8
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := postJSON(t, s, "/v1/vet?deadline_ms=300", VetRequest{App: testApp(i)})
			codes[i] = rec.Code
			if rec.Code == http.StatusTooManyRequests {
				if rec.Header().Get("Retry-After") != "3" {
					t.Errorf("Retry-After = %q, want 3", rec.Header().Get("Retry-After"))
				}
				var er struct {
					RetryAfterSec int `json:"retry_after_sec"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.RetryAfterSec != 3 {
					t.Errorf("shed body %q", rec.Body.String())
				}
			}
		}(i)
	}
	wg.Wait()
	sheds := 0
	for _, c := range codes {
		if c == http.StatusTooManyRequests {
			sheds++
		}
	}
	// Distinct apps, 1 worker stuck + 1 queue slot: at least n-2 requests
	// must shed rather than queue without bound.
	if sheds < n-2 {
		t.Fatalf("only %d/%d requests shed under overload (codes %v)", sheds, n, codes)
	}
	m := s.Metrics()
	if m.Hits.Load()+m.Misses.Load()+m.Sheds.Load() != m.Requests.Load() {
		t.Fatalf("accounting broken under overload: %+v", s.Snapshot())
	}
	if m.Sheds.Load() != uint64(sheds) {
		t.Fatalf("shed counter %d, want %d", m.Sheds.Load(), sheds)
	}
}

func TestDeadlineExpiresWith504(t *testing.T) {
	release := make(chan struct{})
	s := newServer(Config{Workers: 1, Deadline: 30 * time.Millisecond},
		func(app *dexir.App) (defense.VetVerdict, error) {
			<-release
			return defense.VetVerdict{Package: app.Package, Allow: true}, nil
		})
	defer s.Close()
	start := time.Now()
	rec := postJSON(t, s, "/v1/vet", VetRequest{App: testApp(0)})
	close(release)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", rec.Code, rec.Body.String())
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline of 30ms enforced only after %v", elapsed)
	}
	m := s.Metrics()
	if m.Expired.Load() != 1 || m.Misses.Load() != 1 {
		t.Fatalf("expired=%d misses=%d, want 1/1", m.Expired.Load(), m.Misses.Load())
	}
}

func TestClientCannotRaiseDeadline(t *testing.T) {
	release := make(chan struct{})
	s := newServer(Config{Workers: 1, Deadline: 30 * time.Millisecond},
		func(app *dexir.App) (defense.VetVerdict, error) {
			<-release
			return defense.VetVerdict{}, nil
		})
	defer s.Close()
	start := time.Now()
	rec := postJSON(t, s, "/v1/vet?deadline_ms=60000", VetRequest{App: testApp(0)})
	close(release)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", rec.Code)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("client raised the server deadline")
	}
}

func TestLRUEviction(t *testing.T) {
	s := New(Config{CacheCapacity: 4, CacheShards: 1})
	defer s.Close()
	for i := 0; i < 8; i++ {
		postJSON(t, s, "/v1/vet", VetRequest{App: testApp(i)})
	}
	if ev := s.cache.Evictions(); ev != 4 {
		t.Fatalf("evictions %d, want 4", ev)
	}
	if n := s.cache.Len(); n != 4 {
		t.Fatalf("cache holds %d, want 4", n)
	}
	// The oldest entries are gone: re-requesting app 0 must miss again.
	rec := postJSON(t, s, "/v1/vet", VetRequest{App: testApp(0)})
	if decodeVerdict(t, rec).Cached {
		t.Fatal("evicted entry served as cache hit")
	}
}

func TestObservabilityEndpoints(t *testing.T) {
	var logs bytes.Buffer
	s := New(Config{LogWriter: &logs})
	defer s.Close()
	app := corpusApps(t, 1)[0].IR
	postJSON(t, s, "/v1/vet", VetRequest{App: app})
	postJSON(t, s, "/v1/vet", VetRequest{App: app})

	if rec := getPath(s, "/healthz"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"status":"ok"`) {
		t.Fatalf("healthz: %d %q", rec.Code, rec.Body.String())
	}

	rec := getPath(s, "/metrics")
	body := rec.Body.String()
	for _, want := range []string{
		"vetd_requests_total 2",
		"vetd_cache_hits_total 1",
		"vetd_cache_misses_total 1",
		"vetd_shed_total 0",
		"vetd_queue_depth 0",
		`vetd_http_requests_total{endpoint="vet"} 2`,
		`vetd_latency_seconds_bucket{stage="total",le="+Inf"} 2`,
		`vetd_latency_seconds_count{stage="analyze"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}

	var st Stats
	if err := json.Unmarshal(getPath(s, "/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 2 || st.Hits != 1 || st.HitRate != 0.5 {
		t.Fatalf("stats %+v", st)
	}

	// Structured logs: one JSON line per vet request with the fields the
	// ops side keys on.
	lines := strings.Split(strings.TrimSpace(logs.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d log lines, want 2: %q", len(lines), logs.String())
	}
	var rl requestLog
	if err := json.Unmarshal([]byte(lines[1]), &rl); err != nil {
		t.Fatal(err)
	}
	if rl.Outcome != outcomeHit || rl.Package != app.Package || rl.IRHash == "" || rl.Status != 200 {
		t.Fatalf("log line %+v", rl)
	}
}

func TestHashIRStability(t *testing.T) {
	a := testApp(1)
	h1, err := HashIR(a)
	if err != nil {
		t.Fatal(err)
	}
	// Round-tripping through the wire encoding must not change the hash:
	// that is what makes the client's IR and the server's decoded IR
	// share a cache identity.
	b, _ := json.Marshal(a)
	var back dexir.App
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	h2, err := HashIR(&back)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("hash changed across JSON round trip: %s vs %s", h1, h2)
	}
	h3, _ := HashIR(testApp(2))
	if h3 == h1 {
		t.Fatal("distinct apps share a hash")
	}
	if _, err := HashIR(nil); err == nil {
		t.Fatal("nil app hashed")
	}
}

func TestCloseRejectsNewWork(t *testing.T) {
	s := New(Config{})
	s.Close()
	rec := postJSON(t, s, "/v1/vet", VetRequest{App: testApp(0)})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d after Close, want 503", rec.Code)
	}
}

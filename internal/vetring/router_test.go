package vetring

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/appstore"
	"repro/internal/defense"
	"repro/internal/dexir"
	"repro/internal/netfaults"
	"repro/internal/staticanalysis"
	"repro/internal/vetd"
)

func newListener(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }

// testRing spins up n real vetd nodes behind httptest listeners and a
// router over them. Probes are disabled unless probe > 0 so tests stay
// free of background timing noise.
func testRing(t *testing.T, n int, tier staticanalysis.Tier, mutate func(*Config)) (*Router, []*httptest.Server) {
	t.Helper()
	peers := make([]string, n)
	servers := make([]*httptest.Server, n)
	for i := 0; i < n; i++ {
		node := vetd.New(vetd.Config{Tier: tier})
		ts := httptest.NewServer(node)
		t.Cleanup(func() { ts.Close(); node.Close() })
		servers[i] = ts
		peers[i] = strings.TrimPrefix(ts.URL, "http://")
	}
	cfg := Config{
		Peers:         peers,
		Replicas:      2,
		Tier:          tier,
		Deadline:      2 * time.Second,
		RetryBase:     time.Millisecond,
		ProbeInterval: -1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r, servers
}

func corpus(t *testing.T, n int) []appstore.APK {
	t.Helper()
	apks, err := appstore.GenerateApps(42, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	return apks
}

func routePost(t *testing.T, r *Router, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(b))
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, req)
	return rec
}

// checkCore asserts the served verdict matches a direct defense.VetTier
// run byte-for-byte on the core fields — the ring-level restatement of
// cmd/vetload -check.
func checkCore(t *testing.T, v vetd.Verdict, app *dexir.App, tier staticanalysis.Tier) {
	t.Helper()
	want, err := defense.VetTier(app, tier)
	if err != nil {
		t.Fatal(err)
	}
	hash, _ := vetd.HashIR(app)
	gotCore, _ := v.Core()
	wantCore, _ := vetd.NewVerdict(want, hash, false).Core()
	if !bytes.Equal(gotCore, wantCore) {
		t.Fatalf("%s: routed verdict differs from direct analysis:\n%s\nvs\n%s", app.Package, gotCore, wantCore)
	}
}

// checkAccounting asserts the router's exclusive classification.
func checkAccounting(t *testing.T, r *Router) {
	t.Helper()
	st := r.Snapshot()
	if st.Replicated+st.Degraded+st.Sheds+st.Failed != st.Requests {
		t.Fatalf("accounting broken: replicated=%d degraded=%d sheds=%d failed=%d requests=%d",
			st.Replicated, st.Degraded, st.Sheds, st.Failed, st.Requests)
	}
}

func TestRouterReplicatesAcrossRing(t *testing.T) {
	const tier = staticanalysis.Tier(2)
	r, _ := testRing(t, 3, tier, nil)
	apks := corpus(t, 60)
	for _, apk := range apks {
		rec := routePost(t, r, "/v1/vet", vetd.VetRequest{App: apk.IR})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", apk.Package, rec.Code, rec.Body.String())
		}
		var v vetd.Verdict
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatal(err)
		}
		if v.Degraded || v.Peer == "" {
			t.Fatalf("%s: healthy ring answered degraded=%v peer=%q", apk.Package, v.Degraded, v.Peer)
		}
		checkCore(t, v, apk.IR, tier)
	}
	st := r.Snapshot()
	if st.Replicated != uint64(len(apks)) || st.Degraded != 0 || st.Retries != 0 {
		t.Fatalf("healthy ring stats: %+v", st)
	}
	checkAccounting(t, r)
	// The keyspace must actually shard: with 60 keys on 3 peers, every
	// peer serves some.
	for _, p := range st.Peers {
		if p.Served == 0 {
			t.Fatalf("peer %s served nothing; ring not sharding (%+v)", p.Name, st.Peers)
		}
	}
	if st.Service != "vetrouter" {
		t.Fatalf("service %q, want vetrouter", st.Service)
	}
}

// TestRouterSurvivesEachPeerPartitioned partitions each peer in turn:
// every request must still answer 200 with a byte-correct verdict, and
// the exclusive accounting must hold throughout.
func TestRouterSurvivesEachPeerPartitioned(t *testing.T) {
	const tier = staticanalysis.Tier(1)
	const peers = 3
	apks := corpus(t, 30)
	for dead := 0; dead < peers; dead++ {
		t.Run(fmt.Sprintf("peer%d-down", dead), func(t *testing.T) {
			prof := netfaults.Profile{Name: "one-down", PartitionPeers: []int{dead}}
			r, _ := testRing(t, peers, tier, func(c *Config) {
				c.NetPlane = netfaults.NewPlane(prof, 7)
				c.BreakerCooldown = 10 * time.Second // stays open for the test's duration
			})
			for _, apk := range apks {
				rec := routePost(t, r, "/v1/vet", vetd.VetRequest{App: apk.IR})
				if rec.Code != http.StatusOK {
					t.Fatalf("%s: status %d with peer %d down: %s", apk.Package, rec.Code, dead, rec.Body.String())
				}
				var v vetd.Verdict
				if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
					t.Fatal(err)
				}
				checkCore(t, v, apk.IR, tier)
			}
			st := r.Snapshot()
			if st.Replicated != uint64(len(apks)) {
				t.Fatalf("with R=2 and one peer down every key keeps a live replica; replicated=%d degraded=%d of %d",
					st.Replicated, st.Degraded, len(apks))
			}
			if st.Peers[dead].Served != 0 {
				t.Fatalf("partitioned peer %d served %d requests", dead, st.Peers[dead].Served)
			}
			checkAccounting(t, r)
		})
	}
}

// TestRouterBlackoutDegrades: with the whole ring partitioned every
// verdict comes from the local fallback, stamped degraded, still
// byte-correct.
func TestRouterBlackoutDegrades(t *testing.T) {
	const tier = staticanalysis.Tier(2)
	r, _ := testRing(t, 2, tier, func(c *Config) {
		c.NetPlane = netfaults.NewPlane(netfaults.Profile{Name: "blackout", PartitionAll: true}, 7)
		c.Retries = -1 // single pass: the test asserts outcomes, not retry depth
		c.BreakerCooldown = 10 * time.Second
	})
	apks := corpus(t, 20)
	for _, apk := range apks {
		rec := routePost(t, r, "/v1/vet", vetd.VetRequest{App: apk.IR})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d under blackout: %s", apk.Package, rec.Code, rec.Body.String())
		}
		var v vetd.Verdict
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatal(err)
		}
		if !v.Degraded || v.Peer != "" {
			t.Fatalf("%s: blackout verdict degraded=%v peer=%q, want degraded local answer", apk.Package, v.Degraded, v.Peer)
		}
		checkCore(t, v, apk.IR, tier)
	}
	st := r.Snapshot()
	if st.Degraded != uint64(len(apks)) || st.Replicated != 0 {
		t.Fatalf("blackout stats: %+v", st)
	}
	if st.FallbackAnalyses != uint64(len(apks)) {
		t.Fatalf("fallback analyses %d, want %d", st.FallbackAnalyses, len(apks))
	}
	checkAccounting(t, r)
	// Both breakers open after the default 3 failures; every later
	// request skips both peers without an attempt, and /stats and
	// /metrics say so.
	if want := uint64(2 * (len(apks) - 3)); st.BreakerSkips != want {
		t.Fatalf("breaker skips %d, want %d", st.BreakerSkips, want)
	}
	for path, want := range map[string]string{
		"/stats":   fmt.Sprintf(`"breaker_skips":%d,`, st.BreakerSkips),
		"/metrics": fmt.Sprintf("vetrouter_breaker_skips_total %d\n", st.BreakerSkips),
	} {
		rec := httptest.NewRecorder()
		r.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("%s lacks %q:\n%s", path, want, rec.Body.String())
		}
	}
}

// TestRouterRetriesThroughDrops: a lossy (but not partitioned) network
// must cost retries/failovers, never wrong answers or hard failures.
func TestRouterRetriesThroughDrops(t *testing.T) {
	const tier = staticanalysis.Tier(0)
	r, _ := testRing(t, 3, tier, func(c *Config) {
		c.NetPlane = netfaults.NewPlane(netfaults.Profile{Name: "lossy", DropProb: 0.25}, 11)
		c.Retries = 3
		c.BreakerThreshold = 1000 // isolate the retry path from breaker state
	})
	apks := corpus(t, 40)
	for _, apk := range apks {
		rec := routePost(t, r, "/v1/vet", vetd.VetRequest{App: apk.IR})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d through drops: %s", apk.Package, rec.Code, rec.Body.String())
		}
		var v vetd.Verdict
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatal(err)
		}
		checkCore(t, v, apk.IR, tier)
	}
	st := r.Snapshot()
	if st.PeerErrs == 0 {
		t.Fatal("25% drop rate injected no peer errors in 40 requests")
	}
	if st.Replicated+st.Degraded != uint64(len(apks)) {
		t.Fatalf("lossy ring lost requests: %+v", st)
	}
	checkAccounting(t, r)
}

// TestRouterFailsOverOn429: a shedding peer is failed over without
// breaker damage.
func TestRouterFailsOverOn429(t *testing.T) {
	// Peer 0 always sheds; peer 1 is a real vetd node.
	shedder := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"shed"}`, http.StatusTooManyRequests)
	}))
	defer shedder.Close()
	const tier = staticanalysis.Tier(0)
	node := vetd.New(vetd.Config{Tier: tier})
	ts := httptest.NewServer(node)
	defer func() { ts.Close(); node.Close() }()

	r, err := New(Config{
		Peers:         []string{strings.TrimPrefix(shedder.URL, "http://"), strings.TrimPrefix(ts.URL, "http://")},
		Replicas:      2,
		Tier:          tier,
		ProbeInterval: -1,
		RetryBase:     time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	apks := corpus(t, 20)
	for _, apk := range apks {
		rec := routePost(t, r, "/v1/vet", vetd.VetRequest{App: apk.IR})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", apk.Package, rec.Code, rec.Body.String())
		}
	}
	st := r.Snapshot()
	if st.Replicated != uint64(len(apks)) || st.Degraded != 0 {
		t.Fatalf("sheds not failed over: %+v", st)
	}
	if st.Peer429s == 0 {
		t.Fatal("no peer 429s observed despite a permanently shedding replica")
	}
	if st.Peers[0].Breaker != "closed" {
		t.Fatalf("429s opened the shedder's breaker (%s); load shedding must not count as failure", st.Peers[0].Breaker)
	}
	checkAccounting(t, r)
}

// TestRouterZeroFaultPlaneIsNoOp: Config.NetPlane == nil and a
// zero-profile plane must behave identically — no degraded verdicts, no
// retries, no injected faults.
func TestRouterZeroFaultPlaneIsNoOp(t *testing.T) {
	const tier = staticanalysis.Tier(0)
	plane := netfaults.NewPlane(netfaults.Profile{Name: "none"}, 5)
	r, _ := testRing(t, 2, tier, func(c *Config) { c.NetPlane = plane })
	for _, apk := range corpus(t, 20) {
		if rec := routePost(t, r, "/v1/vet", vetd.VetRequest{App: apk.IR}); rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	}
	st := r.Snapshot()
	if st.Degraded != 0 || st.Retries != 0 || st.PeerErrs != 0 {
		t.Fatalf("zero profile perturbed serving: %+v", st)
	}
	if !plane.Stats().Zero() {
		t.Fatalf("zero profile injected faults: %+v", plane.Stats())
	}
}

// TestRouterBatchClassifiesPerItem: batch items route and classify
// individually, preserving order.
func TestRouterBatchClassifiesPerItem(t *testing.T) {
	const tier = staticanalysis.Tier(0)
	r, _ := testRing(t, 2, tier, nil)
	apks := corpus(t, 6)
	apps := make([]*dexir.App, len(apks))
	for i, a := range apks {
		apps[i] = a.IR
	}
	rec := routePost(t, r, "/v1/vet/batch", vetd.BatchRequest{Apps: apps})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body.String())
	}
	var resp vetd.BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Verdicts) != len(apps) {
		t.Fatalf("%d verdicts, want %d", len(resp.Verdicts), len(apps))
	}
	for i, item := range resp.Verdicts {
		if item.Status != http.StatusOK || item.Verdict == nil || item.Verdict.Package != apps[i].Package {
			t.Fatalf("item %d: %+v", i, item)
		}
	}
	if st := r.Snapshot(); st.Requests != uint64(len(apps)) {
		t.Fatalf("batch items not classified individually: %+v", st)
	}
	checkAccounting(t, r)
}

// TestRouterProbesRecoverPeers: probes open the breaker of a dead peer
// and close it again when the peer returns at the same address.
func TestRouterProbesRecoverPeers(t *testing.T) {
	const tier = staticanalysis.Tier(0)
	node := vetd.New(vetd.Config{Tier: tier})
	defer node.Close()
	ts := httptest.NewServer(node)
	addr := strings.TrimPrefix(ts.URL, "http://")

	r, err := New(Config{
		Peers:            []string{addr},
		Replicas:         1,
		Tier:             tier,
		ProbeInterval:    10 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	waitFor := func(want string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if st := r.Snapshot().Peers[0].Breaker; st == want {
				return
			}
			if time.Now().After(deadline) {
				st := r.Snapshot().Peers[0].Breaker
				t.Fatalf("breaker stuck %s, want %s", st, want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitFor("closed")
	ts.CloseClientConnections()
	ts.Close()
	waitFor("open")
	if r.Snapshot().ProbeFail == 0 {
		t.Fatal("probe failures not counted")
	}
	// Revive at the same address (SO_REUSEADDR semantics of a restarted
	// peer). httptest can't rebind a closed listener, so serve directly.
	ln, err := newListener(addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	srv := &http.Server{Handler: node}
	go srv.Serve(ln)
	defer srv.Close()
	waitFor("closed")
	if r.Snapshot().ProbeOK == 0 {
		t.Fatal("probe successes not counted")
	}
}

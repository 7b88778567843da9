package sentring

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/netfaults"
	"repro/internal/sentry"
)

func newListener(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }

// testRing spins up n real sentryd nodes behind httptest listeners and
// a router over them. Probes are disabled unless the mutator turns them
// on, so tests stay free of background timing noise.
func testRing(t *testing.T, n int, mutate func(*Config)) (*Router, []*sentry.Server) {
	t.Helper()
	peers := make([]string, n)
	nodes := make([]*sentry.Server, n)
	for i := 0; i < n; i++ {
		node, err := sentry.NewServer(sentry.ServerConfig{QueueDepth: 256})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(node)
		t.Cleanup(func() { ts.Close(); node.Close() })
		nodes[i] = node
		peers[i] = strings.TrimPrefix(ts.URL, "http://")
	}
	cfg := Config{
		Peers:         peers,
		Replicas:      2,
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
	return r, nodes
}

// attackerBatch is a draw-and-destroy stream that must flag, starting
// at sequence seq.
func attackerBatch(t *testing.T, device string, seq uint64) []byte {
	t.Helper()
	var recs []sentry.Record
	for i := 0; i < 8; i++ {
		at := time.Duration(i) * 6 * time.Millisecond
		recs = append(recs,
			sentry.Record{Device: device, Seq: seq + uint64(2*i), Method: sentry.MethodAddView, At: at},
			sentry.Record{Device: device, Seq: seq + uint64(2*i+1), Method: sentry.MethodRemoveView, At: at + 3*time.Millisecond},
		)
	}
	b, err := sentry.EncodeBatch(recs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// benignBatch is a sparse widget stream that must stay clean.
func benignBatch(t *testing.T, device string) []byte {
	t.Helper()
	recs := []sentry.Record{
		{Device: device, Seq: 0, Method: sentry.MethodAddView, At: 0},
		{Device: device, Seq: 1, Method: sentry.MethodEnqueueNotification, At: 400 * time.Millisecond},
		{Device: device, Seq: 2, Method: sentry.MethodRemoveView, At: 900 * time.Millisecond},
	}
	b, err := sentry.EncodeBatch(recs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func ingest(t *testing.T, r *Router, device string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/ingest?device="+device, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, req)
	return rec
}

// checkAccounting asserts the router's exclusive batch classification.
func checkAccounting(t *testing.T, r *Router) {
	t.Helper()
	st := r.Snapshot()
	if st.Routed+st.Degraded+st.Sheds+st.Failed != st.Batches {
		t.Fatalf("batch accounting broken: routed=%d degraded=%d sheds=%d failed=%d batches=%d",
			st.Routed, st.Degraded, st.Sheds, st.Failed, st.Batches)
	}
	if st.Batches+st.BadBatches+st.RefusedBatches != st.IngestCalls {
		t.Fatalf("call accounting broken: batches=%d bad=%d refused=%d calls=%d",
			st.Batches, st.BadBatches, st.RefusedBatches, st.IngestCalls)
	}
}

func TestRouterRoutesAcrossRing(t *testing.T) {
	r, _ := testRing(t, 3, nil)
	const devices = 60
	attackers := 0
	for i := 0; i < devices; i++ {
		device := fmt.Sprintf("dev-%05d", i)
		var body []byte
		if i%5 == 0 {
			body = attackerBatch(t, device, 0)
			attackers++
		} else {
			body = benignBatch(t, device)
		}
		rec := ingest(t, r, device, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", device, rec.Code, rec.Body.String())
		}
		var ir sentry.IngestResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &ir); err != nil {
			t.Fatal(err)
		}
		if ir.Degraded {
			t.Fatalf("%s: healthy ring answered degraded", device)
		}
	}
	st := r.Snapshot()
	if st.Routed != devices || st.Degraded != 0 || st.Retries != 0 {
		t.Fatalf("healthy ring stats: %+v", st)
	}
	// R=2 replication: every batch acked twice.
	if st.Acks != 2*devices {
		t.Fatalf("acks = %d, want %d (R=2 full replication)", st.Acks, 2*devices)
	}
	checkAccounting(t, r)
	for _, p := range st.Peers {
		if p.Served == 0 {
			t.Fatalf("peer %s served nothing; ring not sharding (%+v)", p.Name, st.Peers)
		}
	}
	if st.Service != "sentryrouter" {
		t.Fatalf("service %q, want sentryrouter", st.Service)
	}

	snap := r.MergedSnapshot(context.Background())
	if snap.DevicesReported != devices || snap.Detected != attackers || snap.Shed != 0 {
		t.Fatalf("merged snapshot: reported=%d detected=%d shed=%d, want %d/%d/0",
			snap.DevicesReported, snap.Detected, snap.Shed, devices, attackers)
	}
	if snap.Detected+snap.Clean+snap.Shed != snap.DevicesReported {
		t.Fatalf("merged accounting broken: %+v", snap)
	}
	for i := 1; i < len(snap.Detections); i++ {
		if snap.Detections[i-1].Device >= snap.Detections[i].Device {
			t.Fatal("merged detections not sorted by device")
		}
	}
}

// TestRouterSurvivesEachPeerPartitioned partitions each peer in turn:
// with R=2 every device keeps a live replica, so every batch must still
// route (not degrade) and the accounting must hold throughout.
func TestRouterSurvivesEachPeerPartitioned(t *testing.T) {
	const peers = 3
	for dead := 0; dead < peers; dead++ {
		t.Run(fmt.Sprintf("peer%d-down", dead), func(t *testing.T) {
			prof := netfaults.Profile{Name: "one-down", PartitionPeers: []int{dead}}
			r, _ := testRing(t, peers, func(c *Config) {
				c.NetPlane = netfaults.NewPlane(prof, 7)
				c.BreakerCooldown = 10 * time.Second // stays open for the test's duration
			})
			const devices = 30
			for i := 0; i < devices; i++ {
				device := fmt.Sprintf("dev-%05d", i)
				rec := ingest(t, r, device, attackerBatch(t, device, 0))
				if rec.Code != http.StatusOK {
					t.Fatalf("%s: status %d with peer %d down: %s", device, rec.Code, dead, rec.Body.String())
				}
			}
			st := r.Snapshot()
			if st.Routed != devices {
				t.Fatalf("with R=2 and one peer down every device keeps a live replica; routed=%d degraded=%d of %d",
					st.Routed, st.Degraded, devices)
			}
			if st.Peers[dead].Served != 0 {
				t.Fatalf("partitioned peer %d served %d batches", dead, st.Peers[dead].Served)
			}
			checkAccounting(t, r)
			// Every attacker still lands in the merged report.
			snap := r.MergedSnapshot(context.Background())
			if snap.Detected != devices {
				t.Fatalf("merged report lost detections with peer %d down: %d of %d", dead, snap.Detected, devices)
			}
		})
	}
}

// TestRouterDeadPeerFailsFast: once a partitioned peer's breaker is
// open, batches placed on it route on their live replica without a
// retry pass, and the merged report is the healthy ring's.
func TestRouterDeadPeerFailsFast(t *testing.T) {
	fl, err := sentry.GenerateFleet(sentry.FleetConfig{
		Devices: 200, Attackers: 6, NotifAbusers: 3,
		Span: 6 * time.Second, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 4
	healthy, _ := replayAgainstRing(t, fl, 3, clients, nil)
	down, r := replayAgainstRing(t, fl, 3, clients, func(c *Config) {
		c.NetPlane = netfaults.NewPlane(netfaults.Profile{Name: "peer0-down", PartitionPeers: []int{0}}, 7)
		c.BreakerThreshold = 1
		c.BreakerCooldown = time.Hour
	})
	st := r.Snapshot()
	if st.Routed != st.Batches {
		t.Fatalf("routed %d of %d batches with one peer down: %+v", st.Routed, st.Batches, st)
	}
	// Each client can fail on the dead peer at most once before the
	// breaker opens, and only such a failure earns a retry pass.
	if st.PeerErrs == 0 || st.PeerErrs > clients || st.Retries > st.PeerErrs {
		t.Fatalf("retries=%d peer_errors=%d, want retries only for the %d-or-fewer failures before the breaker opened",
			st.Retries, st.PeerErrs, clients)
	}
	if st.BreakerSkips == 0 || st.Peers[0].Served != 0 || st.Peers[0].Breaker != "open" {
		t.Fatalf("dead peer not skipped by its open breaker: skips=%d peer0=%+v", st.BreakerSkips, st.Peers[0])
	}
	if down != healthy {
		t.Fatalf("merged report with peer 0 down differs from the healthy ring's:\n-- down --\n%s\n-- healthy --\n%s", down, healthy)
	}
}

// TestRouterBlackoutDegrades: with the whole ring partitioned every
// batch lands on the local fallback engine, stamped degraded, and the
// merged report still carries the detections.
func TestRouterBlackoutDegrades(t *testing.T) {
	r, _ := testRing(t, 2, func(c *Config) {
		c.NetPlane = netfaults.NewPlane(netfaults.Profile{Name: "blackout", PartitionAll: true}, 7)
		c.Retries = -1 // single pass: the test asserts outcomes, not retry depth
		c.BreakerCooldown = 10 * time.Second
	})
	const devices = 8
	for i := 0; i < devices; i++ {
		device := fmt.Sprintf("dev-%05d", i)
		rec := ingest(t, r, device, attackerBatch(t, device, 0))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d under blackout: %s", device, rec.Code, rec.Body.String())
		}
		var ir sentry.IngestResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &ir); err != nil {
			t.Fatal(err)
		}
		if !ir.Degraded || !ir.Detected {
			t.Fatalf("%s: blackout response degraded=%v detected=%v, want degraded local detection", device, ir.Degraded, ir.Detected)
		}
	}
	st := r.Snapshot()
	if st.Degraded != devices || st.Routed != 0 {
		t.Fatalf("blackout stats: %+v", st)
	}
	if st.FallbackIngests != devices {
		t.Fatalf("fallback ingests %d, want %d", st.FallbackIngests, devices)
	}
	checkAccounting(t, r)
	// Both breakers open after the default 3 failures; every later
	// request skips both peers without an attempt, and /stats and
	// /metrics say so.
	if want := uint64(2 * (devices - 3)); st.BreakerSkips != want {
		t.Fatalf("breaker skips %d, want %d", st.BreakerSkips, want)
	}
	for path, want := range map[string]string{
		"/stats":   fmt.Sprintf(`"breaker_skips":%d,`, st.BreakerSkips),
		"/metrics": fmt.Sprintf("sentryrouter_breaker_skips_total %d\n", st.BreakerSkips),
	} {
		rec := httptest.NewRecorder()
		r.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("%s lacks %q:\n%s", path, want, rec.Body.String())
		}
	}
	snap := r.MergedSnapshot(context.Background())
	if snap.Detected != devices {
		t.Fatalf("merged report lost degraded detections: %d of %d", snap.Detected, devices)
	}
}

// TestRouterFailsOverOn429: a shedding peer is failed over without
// breaker damage — opening the circuit on load would amplify the
// overload onto the remaining replicas.
func TestRouterFailsOverOn429(t *testing.T) {
	shedder := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"shed"}`, http.StatusTooManyRequests)
	}))
	defer shedder.Close()
	node, err := sentry.NewServer(sentry.ServerConfig{QueueDepth: 256})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(node)
	defer func() { ts.Close(); node.Close() }()

	r, err := New(Config{
		Peers:         []string{strings.TrimPrefix(shedder.URL, "http://"), strings.TrimPrefix(ts.URL, "http://")},
		Replicas:      2,
		ProbeInterval: -1,
		RetryBase:     time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const devices = 20
	for i := 0; i < devices; i++ {
		device := fmt.Sprintf("dev-%05d", i)
		if rec := ingest(t, r, device, attackerBatch(t, device, 0)); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", device, rec.Code, rec.Body.String())
		}
	}
	st := r.Snapshot()
	if st.Routed != devices || st.Degraded != 0 {
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

// TestRouterConflictFailsBatch: a genuine stream conflict (a replayed
// batch with stale sequence numbers, no transport error involved) is
// classified failed and propagated 409, never silently dropped.
func TestRouterConflictFailsBatch(t *testing.T) {
	r, _ := testRing(t, 3, nil)
	body := attackerBatch(t, "dev-x", 0)
	if rec := ingest(t, r, "dev-x", body); rec.Code != http.StatusOK {
		t.Fatalf("first batch: status %d", rec.Code)
	}
	rec := ingest(t, r, "dev-x", body) // same seqs again
	if rec.Code != http.StatusConflict {
		t.Fatalf("replayed batch: status %d, want 409: %s", rec.Code, rec.Body.String())
	}
	st := r.Snapshot()
	if st.Failed != 1 || st.Routed != 1 || st.DupAcks != 0 {
		t.Fatalf("conflict classification: %+v", st)
	}
	checkAccounting(t, r)
}

// TestRouterRejectsBadBatchesAndRefusesAfterClose: pre-routing
// rejections and shutdown refusals land on their own counters, keeping
// the call-level identity exact.
func TestRouterRejectsBadBatchesAndRefusesAfterClose(t *testing.T) {
	r, _ := testRing(t, 2, nil)
	if rec := ingest(t, r, strings.Repeat("x", 65), benignBatch(t, "dev-a")); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad device: status %d", rec.Code)
	}
	if rec := ingest(t, r, "dev-a", []byte("not wire format\n")); rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage body: status %d", rec.Code)
	}
	if rec := ingest(t, r, "dev-a", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty body: status %d", rec.Code)
	}
	if rec := ingest(t, r, "dev-a", benignBatch(t, "dev-a")); rec.Code != http.StatusOK {
		t.Fatalf("good batch: status %d", rec.Code)
	}
	r.Close()
	rec := ingest(t, r, "dev-b", benignBatch(t, "dev-b"))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-close: status %d, want 503", rec.Code)
	}
	st := r.Snapshot()
	if st.BadBatches != 3 || st.RefusedBatches != 1 || st.Batches != 1 {
		t.Fatalf("rejection counters: %+v", st)
	}
	checkAccounting(t, r)
}

func postConfig(t *testing.T, r *Router, u sentry.ConfigUpdate) *httptest.ResponseRecorder {
	t.Helper()
	body, err := u.Encode()
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/config", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, req)
	return rec
}

// TestRouterConfigFanout: a config swap on the router reaches every
// peer synchronously, the local engine is the version authority, and
// detections produced after the swap carry the new version through the
// routed path end to end.
func TestRouterConfigFanout(t *testing.T) {
	r, nodes := testRing(t, 3, nil)
	u := r.local.ConfigSnapshot()
	u.Version = 0
	u.MinSwaps++ // still detection-equivalent for the 8-pair attacker batch

	rec := postConfig(t, r, u)
	if rec.Code != http.StatusOK {
		t.Fatalf("config swap: status %d: %s", rec.Code, rec.Body.String())
	}
	var fan ConfigFanout
	if err := json.Unmarshal(rec.Body.Bytes(), &fan); err != nil {
		t.Fatal(err)
	}
	if fan.Version != 2 || fan.PeersAcked != 3 || fan.Peers != 3 {
		t.Fatalf("fanout = %+v, want version 2 acked 3/3", fan)
	}
	if r.local.RulesVersion() != 2 {
		t.Fatalf("local version %d, want 2", r.local.RulesVersion())
	}
	for i, n := range nodes {
		if v := n.Engine().RulesVersion(); v != 2 {
			t.Fatalf("peer %d at version %d after fan-out, want 2", i, v)
		}
	}

	// A detection produced after the swap is stamped with version 2,
	// visible through the router's /v1/flagged proxy.
	if rec := ingest(t, r, "dev-swap", attackerBatch(t, "dev-swap", 0)); rec.Code != http.StatusOK {
		t.Fatalf("post-swap ingest: status %d", rec.Code)
	}
	freq := httptest.NewRequest("GET", "/v1/flagged?device=dev-swap", nil)
	frec := httptest.NewRecorder()
	r.ServeHTTP(frec, freq)
	if frec.Code != http.StatusOK {
		t.Fatalf("flagged: status %d", frec.Code)
	}
	var fr sentry.FlaggedResponse
	if err := json.Unmarshal(frec.Body.Bytes(), &fr); err != nil {
		t.Fatal(err)
	}
	if !fr.Flagged || fr.Detection == nil || fr.Detection.ConfigVersion != 2 {
		t.Fatalf("flagged response %+v, want detection stamped version 2", fr)
	}

	// A stale re-push is a 409 and moves nothing; an invalid update is a
	// 400 and moves nothing.
	stale := u
	stale.Version = 1
	if rec := postConfig(t, r, stale); rec.Code != http.StatusConflict {
		t.Fatalf("stale config: status %d, want 409", rec.Code)
	}
	bad := u
	bad.Version = 0
	bad.MinCalls = 0
	if rec := postConfig(t, r, bad); rec.Code != http.StatusBadRequest {
		t.Fatalf("invalid config: status %d, want 400", rec.Code)
	}
	if r.local.RulesVersion() != 2 {
		t.Fatalf("rejected updates moved the version to %d", r.local.RulesVersion())
	}
}

// TestRouterFlaggedProxyByteIdentical: the router returns the flagged
// replica's response bytes verbatim, so a journal-recovered answer
// reaches the client unchanged through the ring.
func TestRouterFlaggedProxyByteIdentical(t *testing.T) {
	r, nodes := testRing(t, 3, nil)
	if rec := ingest(t, r, "dev-a", attackerBatch(t, "dev-a", 0)); rec.Code != http.StatusOK {
		t.Fatalf("ingest: status %d", rec.Code)
	}

	req := httptest.NewRequest("GET", "/v1/flagged?device=dev-a", nil)
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("routed flagged: status %d", rec.Code)
	}

	// Ask the first replica directly — same bytes.
	pi := r.Ring().Replicas("dev-a")[0]
	drec := httptest.NewRecorder()
	nodes[pi].ServeHTTP(drec, httptest.NewRequest("GET", "/v1/flagged?device=dev-a", nil))
	if !bytes.Equal(rec.Body.Bytes(), drec.Body.Bytes()) {
		t.Fatalf("proxied flagged response differs from replica's:\n%s\nvs\n%s", rec.Body.Bytes(), drec.Body.Bytes())
	}

	// An unknown (but valid) device answers flagged=false.
	urec := httptest.NewRecorder()
	r.ServeHTTP(urec, httptest.NewRequest("GET", "/v1/flagged?device=dev-none", nil))
	var fr sentry.FlaggedResponse
	if err := json.Unmarshal(urec.Body.Bytes(), &fr); err != nil {
		t.Fatal(err)
	}
	if urec.Code != http.StatusOK || fr.Flagged {
		t.Fatalf("unknown device: status %d flagged %v", urec.Code, fr.Flagged)
	}
}

// TestRouterProbeHealsRestartedPeer: a peer that dies and comes back at
// the same address is re-admitted by the probes AND healed to the
// ring's config version — the restarted process came up at version 1
// with empty in-memory rules history.
func TestRouterProbeHealsRestartedPeer(t *testing.T) {
	node, err := sentry.NewServer(sentry.ServerConfig{QueueDepth: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	ts := httptest.NewServer(node)
	addr := strings.TrimPrefix(ts.URL, "http://")

	r, err := New(Config{
		Peers:            []string{addr},
		Replicas:         1,
		ProbeInterval:    10 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  20 * time.Millisecond,
		RetryBase:        time.Millisecond,
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

	// Swap the ring to version 2 while the peer is up.
	u := r.local.ConfigSnapshot()
	u.Version = 0
	u.NotifFlood++
	if rec := postConfig(t, r, u); rec.Code != http.StatusOK {
		t.Fatalf("config swap: status %d", rec.Code)
	}
	if v := node.Engine().RulesVersion(); v != 2 {
		t.Fatalf("peer at version %d before restart, want 2", v)
	}

	ts.CloseClientConnections()
	ts.Close()
	waitFor("open")

	// Restart at the same address with a fresh process image: rule
	// version 1, no history. httptest can't rebind a closed listener, so
	// serve the fresh node directly.
	node2, err := sentry.NewServer(sentry.ServerConfig{QueueDepth: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer node2.Close()
	ln, err := newListener(addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	srv := &http.Server{Handler: node2}
	go srv.Serve(ln)
	defer srv.Close()

	waitFor("closed")
	deadline := time.Now().Add(5 * time.Second)
	for node2.Engine().RulesVersion() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("restarted peer stuck at version %d; probe re-push did not heal it", node2.Engine().RulesVersion())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if r.Snapshot().ConfigPushes < 2 {
		t.Fatalf("config pushes %d, want the fan-out push plus the probe re-push", r.Snapshot().ConfigPushes)
	}
}

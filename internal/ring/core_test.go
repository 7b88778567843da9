package ring

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netfaults"
)

// testCore builds a core over named peers with probes off and a 1ms
// retry base, so the retry loop runs fast and free of background noise.
func testCore(t *testing.T, peers []string, mutate func(*Config)) (*Core, *Counters) {
	t.Helper()
	cfg := Config{Name: "test", Peers: peers, RetryBase: time.Millisecond, ProbeInterval: -1}
	if mutate != nil {
		mutate(&cfg)
	}
	var cnt Counters
	c, err := New(cfg, &cnt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, &cnt
}

// TestReplicateFirstAnswerWins: with need 1 the loop walks the replicas
// in preference order, stops at the first ack, and counts the failure
// and the failover it took to get there.
func TestReplicateFirstAnswerWins(t *testing.T) {
	var failovers atomic.Uint64
	c, cnt := testCore(t, []string{"a:1", "b:1", "c:1"}, func(cfg *Config) {
		cfg.Replicas = 3
		cfg.Failovers = &failovers
	})
	replicas := c.Ring().Replicas("k")
	var tried []int
	acks, aborted := c.Replicate(context.Background(), replicas, 1, func(_ context.Context, i int) Outcome {
		tried = append(tried, i)
		if len(tried) == 1 {
			return Fail
		}
		return Ack
	})
	if acks != 1 || aborted {
		t.Fatalf("acks=%d aborted=%v, want 1/false", acks, aborted)
	}
	if len(tried) != 2 || tried[0] != replicas[0] || tried[1] != replicas[1] {
		t.Fatalf("tried %v, want the first two of %v in order", tried, replicas)
	}
	if failovers.Load() != 1 || cnt.PeerErrs.Load() != 1 || cnt.Retries.Load() != 0 {
		t.Fatalf("failovers=%d peer_errs=%d retries=%d, want 1/1/0", failovers.Load(), cnt.PeerErrs.Load(), cnt.Retries.Load())
	}
	ps := c.Stats().Peers
	if ps[replicas[0]].Errors != 1 || ps[replicas[1]].Served != 1 {
		t.Fatalf("peer stats %+v", ps)
	}
}

// TestReplicateAllAcksRetriesOnlyTheMissing: a write needing every
// replica retries, after backoff, only the replicas that have not
// acked; a busy peer costs no breaker damage.
func TestReplicateAllAcksRetriesOnlyTheMissing(t *testing.T) {
	c, cnt := testCore(t, []string{"a:1", "b:1", "c:1"}, func(cfg *Config) {
		cfg.Replicas = 3
		cfg.Retries = 2
	})
	replicas := c.Ring().Replicas("k")
	calls := map[int]int{}
	acks, aborted := c.Replicate(context.Background(), replicas, 3, func(_ context.Context, i int) Outcome {
		calls[i]++
		if i == replicas[2] && calls[i] < 3 {
			return Busy
		}
		return Ack
	})
	if acks != 3 || aborted {
		t.Fatalf("acks=%d aborted=%v, want 3/false", acks, aborted)
	}
	if calls[replicas[0]] != 1 || calls[replicas[1]] != 1 || calls[replicas[2]] != 3 {
		t.Fatalf("attempts per peer %v: acked replicas must not be re-sent", calls)
	}
	if cnt.Retries.Load() != 2 || cnt.Peer429s.Load() != 2 {
		t.Fatalf("retries=%d peer429s=%d, want 2/2", cnt.Retries.Load(), cnt.Peer429s.Load())
	}
	if st := c.Stats().Peers[replicas[2]].Breaker; st != "closed" {
		t.Fatalf("busy peer's breaker %s, want closed", st)
	}

	// Abort stops the request at once.
	n := 0
	acks, aborted = c.Replicate(context.Background(), replicas, 3, func(context.Context, int) Outcome {
		n++
		return Abort
	})
	if acks != 0 || !aborted || n != 1 {
		t.Fatalf("abort: acks=%d aborted=%v attempts=%d, want 0/true/1", acks, aborted, n)
	}
}

// TestReplicateBreakerAndContext: failures at the threshold open a
// peer's breaker so later passes skip it, and a context that expires
// during a backoff ends the passes early.
func TestReplicateBreakerAndContext(t *testing.T) {
	c, _ := testCore(t, []string{"a:1"}, func(cfg *Config) {
		cfg.Retries = 5
		cfg.BreakerThreshold = 2
		cfg.BreakerCooldown = time.Hour
	})
	n := 0
	acks, _ := c.Replicate(context.Background(), []int{0}, 1, func(context.Context, int) Outcome {
		n++
		return Fail
	})
	if acks != 0 || n != 2 {
		t.Fatalf("acks=%d attempts=%d, want 0 acks and 2 attempts before the breaker opened", acks, n)
	}
	if st := c.Stats().Peers[0]; st.Breaker != "open" || st.Opens != 1 {
		t.Fatalf("breaker %+v, want open once", st)
	}

	c2, cnt := testCore(t, []string{"a:1"}, func(cfg *Config) {
		cfg.Retries = 3
		cfg.RetryBase = time.Hour
	})
	ctx, cancel := context.WithCancel(context.Background())
	acks, _ = c2.Replicate(ctx, []int{0}, 1, func(context.Context, int) Outcome {
		cancel()
		return Busy
	})
	if acks != 0 || cnt.Retries.Load() != 1 {
		t.Fatalf("acks=%d retries=%d, want the first backoff cut short", acks, cnt.Retries.Load())
	}
}

// TestReplicateOpenBreakerFailsFast: when every replica still missing
// is skipped by its open breaker, the next pass would skip it again, so
// Replicate returns the other replicas' acks at once instead of backing
// off — a dead peer costs nothing per request once its circuit is open.
func TestReplicateOpenBreakerFailsFast(t *testing.T) {
	c, cnt := testCore(t, []string{"a:1", "b:1", "c:1"}, func(cfg *Config) {
		cfg.Replicas = 3
		cfg.Retries = 3
		cfg.RetryBase = time.Hour
		cfg.BreakerThreshold = 1
		cfg.BreakerCooldown = time.Hour
	})
	replicas := c.Ring().Replicas("k")
	dead := replicas[1]
	c.peers[dead].brk.onFailure()
	if st := c.Stats().Peers[dead]; st.Breaker != "open" {
		t.Fatalf("breaker %+v, want open after one failure at threshold 1", st)
	}

	done := make(chan struct{})
	var acks int
	var aborted bool
	calls := map[int]int{}
	go func() {
		defer close(done)
		acks, aborted = c.Replicate(context.Background(), replicas, len(replicas), func(_ context.Context, i int) Outcome {
			calls[i]++
			return Ack
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Replicate backed off for a peer its breaker refuses")
	}
	if acks != 2 || aborted {
		t.Fatalf("acks=%d aborted=%v, want the two live replicas' acks", acks, aborted)
	}
	if calls[dead] != 0 || calls[replicas[0]] != 1 || calls[replicas[2]] != 1 {
		t.Fatalf("attempts per peer %v: the open peer must never be attempted", calls)
	}
	if cnt.Retries.Load() != 0 || cnt.BreakerSkips.Load() != 1 {
		t.Fatalf("retries=%d breaker_skips=%d, want 0/1", cnt.Retries.Load(), cnt.BreakerSkips.Load())
	}
}

// TestFallbackShedRule: the fallback sheds when its semaphore is full or
// the context has expired, and absorbs otherwise.
func TestFallbackShedRule(t *testing.T) {
	c, cnt := testCore(t, []string{"a:1"}, func(cfg *Config) { cfg.FallbackConcurrency = 1 })
	var inner error
	absorbed := false
	if err := c.Fallback(context.Background(), func() {
		absorbed = true
		inner = c.Fallback(context.Background(), func() { t.Fatal("absorbed past a full semaphore") })
	}); err != nil || !absorbed {
		t.Fatalf("fallback err=%v absorbed=%v", err, absorbed)
	}
	if !errors.Is(inner, errSaturated) {
		t.Fatalf("nested fallback err=%v, want saturated", inner)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Fallback(ctx, func() { t.Fatal("absorbed after the deadline") }); !errors.Is(err, errExpired) {
		t.Fatalf("expired fallback err=%v", err)
	}
	if cnt.Sheds.Load() != 2 {
		t.Fatalf("sheds=%d, want 2", cnt.Sheds.Load())
	}
}

// TestCallProbesAndEndpoints drives one real peer: Call's status and
// body handling, the probe's failed→ok hook, and the shared endpoints.
func TestCallProbesAndEndpoints(t *testing.T) {
	var down atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, r.URL.Path)
	}))
	defer ts.Close()
	c, cnt := testCore(t, []string{strings.TrimPrefix(ts.URL, "http://")}, func(cfg *Config) {
		cfg.ProbeInterval = 5 * time.Millisecond
		cfg.BreakerCooldown = 5 * time.Millisecond
	})

	var got string
	status, err := c.Call(context.Background(), 0, "POST", "/echo", "text/plain", []byte("x"), func(_ int, rd io.Reader) error {
		b, err := io.ReadAll(rd)
		got = string(b)
		return err
	})
	if err != nil || status != http.StatusOK || got != "/echo" {
		t.Fatalf("Call = %d %q %v", status, got, err)
	}
	if _, err := c.Call(context.Background(), 0, "GET", "/x", "", nil, func(int, io.Reader) error { return errors.New("bad body") }); err == nil {
		t.Fatal("read error not returned")
	}

	recovered := make(chan int, 8)
	down.Store(true)
	c.Start(func(i int) { recovered <- i })
	waitFor(t, func() bool { return cnt.ProbeFail.Load() > 0 && c.Stats().Peers[0].Breaker != "closed" })
	down.Store(false)
	select {
	case i := <-recovered:
		if i != 0 {
			t.Fatalf("recovered peer %d, want 0", i)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("probe never reported the recovery")
	}
	waitFor(t, func() bool { return c.Stats().Peers[0].Breaker == "closed" && cnt.ProbeOK.Load() > 0 })

	mux := http.NewServeMux()
	c.Mount(mux, "test", "Served per peer.", func() any { return map[string]uint64{"sheds": cnt.Sheds.Load()} }, func(p Prom) {
		p.Counter("test_sheds_total", "Sheds.", cnt.Sheds.Load())
	})
	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}
	if code, body := get("/healthz"); code != 200 || body != "{\"status\":\"ok\"}\n" {
		t.Fatalf("healthz %d %q", code, body)
	}
	if code, body := get("/readyz"); code != 200 || !strings.Contains(body, `"healthy_peers":1`) {
		t.Fatalf("readyz %d %q", code, body)
	}
	if code, body := get("/stats"); code != 200 || body != "{\"sheds\":0}\n" {
		t.Fatalf("stats %d %q", code, body)
	}
	_, prom := get("/metrics")
	for _, want := range []string{"test_sheds_total 0", "test_retries_total 0", `test_peer_served_total{peer=`, `test_peer_breaker_open{peer=`} {
		if !strings.Contains(prom, want) {
			t.Fatalf("metrics missing %q:\n%s", want, prom)
		}
	}

	rec := httptest.NewRecorder()
	c.WriteError(rec, http.StatusTooManyRequests, "busy")
	var er ErrorResponse
	if json.Unmarshal(rec.Body.Bytes(), &er); rec.Header().Get("Retry-After") != "1" || er.RetryAfterSec != 1 || er.Error != "busy" {
		t.Fatalf("429 body %q header %q", rec.Body.String(), rec.Header().Get("Retry-After"))
	}

	c.Close()
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "shutting-down") {
		t.Fatalf("readyz after Close %d %q", code, body)
	}
}

// TestFaultTransport: the fault plane enacts partitions as transport
// errors and 5xx storms as synthesized responses, beneath Call.
func TestFaultTransport(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer ts.Close()
	peer := strings.TrimPrefix(ts.URL, "http://")
	for _, tc := range []struct {
		prof   netfaults.Profile
		status int
	}{
		{netfaults.Profile{Name: "cut", PartitionAll: true}, 0},
		{netfaults.Profile{Name: "storm", ErrorProb: 1}, http.StatusServiceUnavailable},
	} {
		c, _ := testCore(t, []string{peer}, func(cfg *Config) { cfg.NetPlane = netfaults.NewPlane(tc.prof, 1) })
		status, err := c.Call(context.Background(), 0, "POST", "/", "text/plain", []byte("x"), nil)
		if status != tc.status || (tc.status == 0) != (err != nil) {
			t.Fatalf("%s: status %d err %v, want %d", tc.prof.Name, status, err, tc.status)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

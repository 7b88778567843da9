// Package ring is the serving core shared by the two ring routers:
// internal/vetring, which shards scan-before-install verdicts across
// vetd peers, and internal/sentring, which replicates the §VII-A
// detector's ingest across sentryd peers. It owns everything the two
// have in common — consistent-hash placement, per-peer circuit
// breakers fed by background /readyz probes, the fault-aware per-peer
// transport, seeded retry backoff, the one retry-pass loop, the
// degraded-fallback semaphore and the core's own counters — so each
// router supplies only its wire format, the rule that classifies a
// peer's answer, and its local fallback. The pieces every serving
// binary shares live here too: the one ops surface (Mount: GET
// /healthz, /readyz, /stats and /metrics), the Prometheus text writer
// (Prom) and latency Histogram, the JSON and error writers with their
// Retry-After hint (whose client half is internal/load.RetryDelay), and
// the daemon lifecycle Serve.
//
// ring is a wall-clock serving package (simlint's ServingPackages
// allowlist): probes, backoff and breaker cooldowns run on real time,
// while placement stays a pure function of the key.
package ring

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netfaults"
	"repro/internal/simrand"
)

// Config parameterizes a Core. Its shared fields mean what the routers'
// flat configs (vetring.Config, sentring.Config) document; each router
// converts in its New, and withDefaults is the one place the defaults
// are decided.
type Config struct {
	// Name prefixes errors and names the backoff jitter stream
	// ("vetring", "sentring").
	Name string

	Peers               []string
	Replicas            int
	VNodes              int
	Deadline            time.Duration
	Retries             int
	RetryBase           time.Duration
	Seed                int64
	BreakerThreshold    int
	BreakerCooldown     time.Duration
	ProbeInterval       time.Duration
	FallbackConcurrency int
	RetryAfter          time.Duration
	MaxBodyBytes        int64
	NetPlane            *netfaults.Plane
	Transport           http.RoundTripper

	// Failovers, when set, counts every move past the primary to a later
	// replica — the read router's failover counter.
	Failovers *atomic.Uint64
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.Deadline <= 0 {
		c.Deadline = 2 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 1
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 25 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.FallbackConcurrency <= 0 {
		c.FallbackConcurrency = 4
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Counters are the core's share of a router's Metrics, embedded there so
// the fields read as the router's own. None of them joins a router's
// request-level accounting identity except Sheds.
type Counters struct {
	Retries      atomic.Uint64 // extra passes over the replica set after a pass with a failed or shed attempt
	Peer429s     atomic.Uint64 // peer shed; no ack, no breaker damage
	PeerErrs     atomic.Uint64 // transport errors + 5xx from peers
	BreakerSkips atomic.Uint64 // attempts not sent because the peer's breaker refused

	// Probe counters.
	ProbeOK   atomic.Uint64
	ProbeFail atomic.Uint64

	// Sheds counts requests refused 429 by the fallback rule: every
	// replica failed and the fallback was saturated or out of time.
	Sheds atomic.Uint64
}

// peer is one node as the core sees it.
type peer struct {
	name   string
	client *http.Client
	brk    *breaker

	served atomic.Uint64
	errors atomic.Uint64
	// ready is the last probe outcome, so the probe loop can see a
	// failed→ok transition.
	ready atomic.Bool
}

// Core is one ring's placement, peers and failure machinery.
type Core struct {
	cfg   Config
	ring  *Ring
	peers []*peer
	cnt   *Counters

	// jitterMu serializes the seeded backoff stream.
	jitterMu sync.Mutex
	jitter   *simrand.Source

	fallbackSem chan struct{}

	probeStop chan struct{}
	probeWG   sync.WaitGroup
	closed    atomic.Bool
}

// New builds a Core over cfg.Peers that counts into cnt. Probes do not
// run until Start.
func New(cfg Config, cnt *Counters) (*Core, error) {
	cfg = cfg.withDefaults()
	r, err := NewRing(cfg.Peers, cfg.VNodes, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	base := cfg.Transport
	if base == nil {
		base = &http.Transport{MaxIdleConnsPerHost: 16}
	}
	c := &Core{
		cfg:         cfg,
		ring:        r,
		cnt:         cnt,
		jitter:      simrand.New(cfg.Seed).Derive(cfg.Name + "/backoff"),
		fallbackSem: make(chan struct{}, cfg.FallbackConcurrency),
		probeStop:   make(chan struct{}),
	}
	for i, name := range cfg.Peers {
		p := &peer{
			name: name,
			client: &http.Client{
				Transport: newPeerTransport(base, cfg.NetPlane, i),
				Timeout:   cfg.Deadline,
			},
			brk: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		}
		p.ready.Store(true) // assume up until a probe says otherwise
		c.peers = append(c.peers, p)
	}
	return c, nil
}

// Start launches one health probe per peer (unless probing is
// disabled). onRecover, when non-nil, runs on the probe goroutine each
// time a peer's probe goes from failed to ok.
func (c *Core) Start(onRecover func(peer int)) {
	if c.cfg.ProbeInterval <= 0 {
		return
	}
	for i := range c.peers {
		c.probeWG.Add(1)
		go c.probeLoop(i, onRecover)
	}
}

// Close stops the probes and marks the core closed; in-flight requests
// finish normally.
func (c *Core) Close() {
	if c.closed.CompareAndSwap(false, true) {
		close(c.probeStop)
		c.probeWG.Wait()
	}
}

// Closed reports whether Close has begun.
func (c *Core) Closed() bool { return c.closed.Load() }

// Config returns the configuration with defaults applied.
func (c *Core) Config() Config { return c.cfg }

// Ring exposes the placement function.
func (c *Core) Ring() *Ring { return c.ring }

// PeerName returns peer i's address.
func (c *Core) PeerName(i int) string { return c.peers[i].name }

// probeLoop polls one peer's /readyz and feeds its breaker, so dead
// peers are discovered between requests and recovered peers readmitted
// within one cooldown.
func (c *Core) probeLoop(i int, onRecover func(int)) {
	defer c.probeWG.Done()
	p := c.peers[i]
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.probeStop:
			return
		case <-t.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeInterval)
		status, err := c.Call(ctx, i, "GET", "/readyz", "", nil, nil)
		cancel()
		if err == nil && status == http.StatusOK {
			c.cnt.ProbeOK.Add(1)
			p.brk.onSuccess()
			if !p.ready.Swap(true) && onRecover != nil {
				onRecover(i)
			}
		} else {
			c.cnt.ProbeFail.Add(1)
			p.brk.onFailure()
			p.ready.Store(false)
		}
	}
}

// backoff returns the jittered delay before retry pass k (1-based):
// RetryBase<<(k-1), jittered uniformly in [0.5x, 1.5x], drawn from the
// core's seeded stream.
func (c *Core) backoff(k int) time.Duration {
	d := c.cfg.RetryBase << (k - 1)
	c.jitterMu.Lock()
	j := 0.5 + c.jitter.Float64()
	c.jitterMu.Unlock()
	return time.Duration(float64(d) * j)
}

// Outcome is a router's classification of one peer answer.
type Outcome int

const (
	// Fail is a transport error, a 5xx or an unexpected status: a peer
	// error and a breaker failure.
	Fail Outcome = iota
	// Ack counts toward the acks the request needs.
	Ack
	// Busy is a live peer shedding load (429): no ack and no breaker
	// damage — opening the circuit on load would amplify the overload
	// onto the remaining replicas.
	Busy
	// Abort ends the request at once: the peer is alive and answered
	// with something every replica would answer the same way.
	Abort
)

// Classify is the default classification: 200 acks, 429 is busy, and
// anything else — a transport error included — fails.
func Classify(status int, err error) Outcome {
	switch {
	case err != nil:
		return Fail
	case status == http.StatusOK:
		return Ack
	case status == http.StatusTooManyRequests:
		return Busy
	}
	return Fail
}

// Replicate is the one retry-pass loop. It tries replicas one at a time
// in preference order, skipping peers whose breaker refuses and
// replicas that already acked, for up to 1+Retries passes with seeded
// backoff between them, until need replicas have acked: 1 for a read
// where the first answer wins, every replica for a replicated write.
// A retry pass runs only after a pass in which some attempt failed or
// was shed: when every replica still missing was skipped by its open
// breaker, the next pass would skip it again, so Replicate stops at
// once instead of backing off for nothing. attempt sends one try to a
// peer and classifies the answer. Replicate returns the acks collected,
// and whether an attempt aborted; a context that expires during a
// backoff ends the passes early.
func (c *Core) Replicate(ctx context.Context, replicas []int, need int, attempt func(ctx context.Context, peer int) Outcome) (acks int, aborted bool) {
	acked := make([]bool, len(replicas))
	retry := true
	for pass := 0; pass <= c.cfg.Retries && retry; pass++ {
		if pass > 0 {
			c.cnt.Retries.Add(1)
			select {
			case <-time.After(c.backoff(pass)):
			case <-ctx.Done():
				return acks, false
			}
		}
		retry = false
		for ri, i := range replicas {
			if acked[ri] {
				continue
			}
			if ri > 0 && c.cfg.Failovers != nil {
				c.cfg.Failovers.Add(1)
			}
			p := c.peers[i]
			if !p.brk.allow() {
				c.cnt.BreakerSkips.Add(1)
				continue
			}
			switch attempt(ctx, i) {
			case Ack:
				p.brk.onSuccess()
				p.served.Add(1)
				acked[ri] = true
				if acks++; acks >= need {
					return acks, false
				}
			case Busy:
				c.cnt.Peer429s.Add(1)
				p.brk.onSuccess()
				retry = true
			case Abort:
				p.brk.onSuccess()
				return acks, true
			default:
				p.errors.Add(1)
				c.cnt.PeerErrs.Add(1)
				p.brk.onFailure()
				retry = true
			}
		}
	}
	return acks, false
}

// Call sends one request to peer i under the per-attempt deadline. read,
// when non-nil, sees the status and the size-capped body; its error is
// returned as a failed exchange. The returned error covers transport
// and read failures; HTTP-level failures come back as the status.
func (c *Core) Call(ctx context.Context, i int, method, path, contentType string, body []byte, read func(status int, body io.Reader) error) (int, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.Deadline)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	p := c.peers[i]
	req, err := http.NewRequestWithContext(ctx, method, "http://"+p.name+path, rd)
	if err != nil {
		return 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if read != nil {
		if err := read(resp.StatusCode, io.LimitReader(resp.Body, c.cfg.MaxBodyBytes)); err != nil {
			return 0, err
		}
	}
	return resp.StatusCode, nil
}

// The fallback rule's two refusals.
var (
	errSaturated = errors.New("ring unreachable and local fallback saturated")
	errExpired   = errors.New("deadline exhausted before fallback")
)

// Fallback is the degraded path once every replica has failed: absorb
// runs while holding one of FallbackConcurrency slots. When every slot
// is taken, or ctx has already expired, Fallback counts a shed and
// returns the reason without calling absorb.
func (c *Core) Fallback(ctx context.Context, absorb func()) error {
	select {
	case c.fallbackSem <- struct{}{}:
	default:
		c.cnt.Sheds.Add(1)
		return errSaturated
	}
	defer func() { <-c.fallbackSem }()
	if ctx.Err() != nil {
		c.cnt.Sheds.Add(1)
		return errExpired
	}
	absorb()
	return nil
}

// PeerStats is one peer's slice of a router's /stats snapshot.
type PeerStats struct {
	Name    string `json:"name"`
	Breaker string `json:"breaker"`
	Opens   uint64 `json:"breaker_opens"`
	Served  uint64 `json:"served"`
	Errors  uint64 `json:"errors"`
}

// CoreStats is the core's share of a router's GET /stats snapshot,
// embedded there so its JSON keys read as the router's own.
type CoreStats struct {
	Retries      uint64      `json:"retries"`
	Peer429s     uint64      `json:"peer_429s"`
	PeerErrs     uint64      `json:"peer_errors"`
	BreakerSkips uint64      `json:"breaker_skips"`
	ProbeOK      uint64      `json:"probe_ok"`
	ProbeFail    uint64      `json:"probe_fail"`
	Peers        []PeerStats `json:"peers"`
}

// Stats snapshots the core's attempt-level and probe counters and
// every peer, in ring order.
func (c *Core) Stats() CoreStats {
	s := CoreStats{
		Retries:      c.cnt.Retries.Load(),
		Peer429s:     c.cnt.Peer429s.Load(),
		PeerErrs:     c.cnt.PeerErrs.Load(),
		BreakerSkips: c.cnt.BreakerSkips.Load(),
		ProbeOK:      c.cnt.ProbeOK.Load(),
		ProbeFail:    c.cnt.ProbeFail.Load(),
	}
	for _, p := range c.peers {
		st, opens := p.brk.snapshot()
		s.Peers = append(s.Peers, PeerStats{Name: p.name, Breaker: st, Opens: opens, Served: p.served.Load(), Errors: p.errors.Load()})
	}
	return s
}

// Mount serves a router's ops endpoints (see the package-level Mount).
// The router is ready while it can still answer — which, thanks to the
// degraded fallback, is whenever the fallback semaphore is not
// saturated or some peer's breaker is closed — and until Close. stats
// and metrics render the router's own snapshot and families; the
// core's counters and per-peer families follow the router's, under
// prefix ("vetrouter", "sentryrouter"), with servedHelp describing
// what a peer's served count counts.
func (c *Core) Mount(mux *http.ServeMux, prefix, servedHelp string, stats func() any, metrics func(Prom)) {
	Mount(mux, Ops{
		Ready: func() (bool, bool, []any) {
			healthy := 0
			for _, p := range c.peers {
				if st, _ := p.brk.snapshot(); st == "closed" {
					healthy++
				}
			}
			full := len(c.fallbackSem) >= cap(c.fallbackSem) && healthy == 0
			return c.closed.Load(), full, []any{"healthy_peers", healthy, "peers", len(c.peers)}
		},
		FullState: "saturated",
		Stats:     stats,
		Metrics: func(p Prom) {
			metrics(p)
			c.writeProm(p, prefix, servedHelp)
		},
	})
}

// writeProm renders the core's counters and per-peer families.
func (c *Core) writeProm(p Prom, prefix, servedHelp string) {
	s := c.Stats()
	p.Counter(prefix+"_retries_total", "Extra replica passes after an incomplete one.", s.Retries)
	p.Counter(prefix+"_peer_429_total", "Peer sheds observed.", s.Peer429s)
	p.Counter(prefix+"_peer_errors_total", "Peer transport errors and 5xx.", s.PeerErrs)
	p.Counter(prefix+"_breaker_skips_total", "Replica attempts not sent because the peer's breaker refused.", s.BreakerSkips)
	p.Counter(prefix+"_probe_ok_total", "Successful health probes.", s.ProbeOK)
	p.Counter(prefix+"_probe_fail_total", "Failed health probes.", s.ProbeFail)
	served := p.Family(prefix+"_peer_served_total", "counter", servedHelp)
	for _, ps := range s.Peers {
		served.Sample(ps.Served, "peer", ps.Name)
	}
	open := p.Family(prefix+"_peer_breaker_open", "gauge", "Peer breaker state (1 = not closed).")
	for _, ps := range s.Peers {
		var v uint64
		if ps.Breaker != "closed" {
			v = 1
		}
		open.Sample(v, "peer", ps.Name, "state", ps.Breaker)
	}
}

// WriteJSON writes v as a JSON response — the response writer every
// serving package (vetd, sentry and both routers) shares.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// ErrorResponse is the wire shape of every serving error body.
type ErrorResponse struct {
	Error         string `json:"error"`
	RetryAfterSec int    `json:"retry_after_sec,omitempty"`
}

// WriteError writes an error response; a 429 carries the retryAfter
// hint, rounded up to whole seconds, in the header and the body.
func WriteError(w http.ResponseWriter, status int, msg string, retryAfter time.Duration) {
	resp := ErrorResponse{Error: msg}
	if status == http.StatusTooManyRequests {
		sec := int((retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(sec))
		resp.RetryAfterSec = sec
	}
	WriteJSON(w, status, resp)
}

// WriteError writes an error response with the core's RetryAfter hint.
func (c *Core) WriteError(w http.ResponseWriter, status int, msg string) {
	WriteError(w, status, msg, c.cfg.RetryAfter)
}

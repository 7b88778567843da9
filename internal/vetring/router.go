// Package vetring is the distributed serving plane for the vetting
// service: a consistent-hash router (cmd/vetrouter) that shards the
// verdict keyspace across N vetd peers with R-way replication, plus the
// failure machinery that keeps the ring answering while peers die —
// per-request deadlines, bounded retries with seeded backoff, per-peer
// circuit breakers fed by background health probes, and graceful
// degradation to a local analysis when every replica for a key is
// unreachable. The machinery is internal/ring's serving core; this
// package is its read specialization: the first replica to answer wins,
// and the local fallback is defense.VetTier.
//
// Verdict safety is structural, not best-effort: a verdict is a pure
// function of (IR, tier), so replication can never serve a wrong answer
// — only a slower or locally recomputed one. The router therefore
// classifies every request into exactly one of replicated / degraded /
// shed / failed (the accounting identity cmd/vetload -check enforces
// under chaos) and stamps degraded verdicts instead of erroring.
//
// The network fault plane (netfaults.Plane) plugs in beneath the HTTP
// clients as a per-peer RoundTripper, so request drops, latency spikes,
// 5xx storms and partitions are injected between router and peer with
// seeded determinism while the router code under test is byte-identical
// to production.
package vetring

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/defense"
	"repro/internal/dexir"
	"repro/internal/netfaults"
	"repro/internal/ring"
	"repro/internal/staticanalysis"
	"repro/internal/vetd"
)

// Config parameterizes a Router.
type Config struct {
	// Peers are the vetd node addresses (host:port), in ring order. The
	// index of a peer in this slice is its identity for the fault plane's
	// partition sets.
	Peers []string
	// Replicas is the replica set size per key (default 2, clamped to
	// len(Peers)).
	Replicas int
	// VNodes is the number of virtual ring points per peer (default 64).
	VNodes int
	// Tier is the static analysis precision tier of the ring; part of
	// every verdict key and of the degraded fallback.
	Tier staticanalysis.Tier

	// Deadline bounds each peer attempt (default 2s).
	Deadline time.Duration
	// Retries is the most extra full passes over the replica set after
	// the first (default 1). A retry pass runs only after a pass in
	// which some attempt failed or was shed (429); a replica skipped by
	// its open breaker is not retried, so a dead peer costs no backoff.
	// Between passes the router backs off exponentially with seeded
	// jitter.
	Retries int
	// RetryBase is the first inter-pass backoff (default 25ms); pass k
	// waits RetryBase<<(k-1), jittered ±50%. It is paid only when a
	// retry pass runs.
	RetryBase time.Duration

	// BreakerThreshold consecutive failures open a peer's circuit
	// (default 3); BreakerCooldown is the open→half-open delay (default
	// 1s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// ProbeInterval is the health-probe period per peer (default 250ms;
	// negative disables probing).
	ProbeInterval time.Duration

	// FallbackConcurrency bounds concurrent local degraded analyses
	// (default 4); beyond it the router sheds.
	FallbackConcurrency int
	// RetryAfter is the hint returned with 429 sheds (default 1s).
	RetryAfter time.Duration
	// MaxBatch bounds batch size (default 256); MaxBodyBytes bounds
	// request bodies (default 16 MiB).
	MaxBatch     int
	MaxBodyBytes int64

	// Seed feeds the backoff jitter stream (default 1).
	Seed int64
	// NetPlane, when non-nil, injects deterministic network faults
	// beneath the peer HTTP clients. Nil in production.
	NetPlane *netfaults.Plane
	// Transport overrides the base HTTP transport (tests); nil uses a
	// dedicated http.Transport per router.
	Transport http.RoundTripper
}

// Router is the ring front end, an http.Handler mirroring vetd's API
// surface (POST /v1/vet, POST /v1/vet/batch, GET /healthz, /readyz,
// /stats, /metrics) so clients cannot tell a node from the ring.
type Router struct {
	tier     staticanalysis.Tier
	maxBatch int
	// vetPath carries the per-attempt deadline to the peer.
	vetPath string
	core    *ring.Core
	mux     *http.ServeMux

	metrics Metrics
}

// New builds a Router over cfg.Peers and starts its health probes.
func New(cfg Config) (*Router, error) {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 256
	}
	r := &Router{tier: cfg.Tier, maxBatch: cfg.MaxBatch}
	core, err := ring.New(ring.Config{
		Name:                "vetring",
		Peers:               cfg.Peers,
		Replicas:            cfg.Replicas,
		VNodes:              cfg.VNodes,
		Deadline:            cfg.Deadline,
		Retries:             cfg.Retries,
		RetryBase:           cfg.RetryBase,
		Seed:                cfg.Seed,
		BreakerThreshold:    cfg.BreakerThreshold,
		BreakerCooldown:     cfg.BreakerCooldown,
		ProbeInterval:       cfg.ProbeInterval,
		FallbackConcurrency: cfg.FallbackConcurrency,
		RetryAfter:          cfg.RetryAfter,
		MaxBodyBytes:        cfg.MaxBodyBytes,
		NetPlane:            cfg.NetPlane,
		Transport:           cfg.Transport,
		Failovers:           &r.metrics.Failovers,
	}, &r.metrics.Counters)
	if err != nil {
		return nil, err
	}
	r.core = core
	r.vetPath = "/v1/vet?deadline_ms=" + strconv.FormatInt(core.Config().Deadline.Milliseconds(), 10)
	r.mux = http.NewServeMux()
	r.mux.HandleFunc("POST /v1/vet", r.handleVet)
	r.mux.HandleFunc("POST /v1/vet/batch", r.handleBatch)
	core.Mount(r.mux, "vetrouter", "Requests served per peer.", func() any { return r.Snapshot() }, r.writeProm)
	core.Start(nil)
	return r, nil
}

// Close stops the health probes; in-flight requests finish normally.
func (r *Router) Close() { r.core.Close() }

// ServeHTTP implements http.Handler.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.mux.ServeHTTP(w, req)
}

// Ring exposes the placement function (tests and topology dumps).
func (r *Router) Ring() *ring.Ring { return r.core.Ring() }

// routeResult is the classified outcome of one routed request.
type routeResult struct {
	verdict vetd.Verdict
	status  int    // HTTP status for the caller
	errMsg  string // set when status != 200
}

// routeOne resolves one app through the ring: replicas in preference
// order until the first answers, bounded retry passes with seeded
// backoff, then local degraded fallback. It classifies the request on
// exactly one of the four request-level counters.
func (r *Router) routeOne(ctx context.Context, app *dexir.App) routeResult {
	r.metrics.Requests.Add(1)
	hash, err := vetd.HashIR(app)
	if err != nil {
		r.metrics.Failed.Add(1)
		return routeResult{status: http.StatusInternalServerError, errMsg: err.Error()}
	}
	body, err := json.Marshal(vetd.VetRequest{App: app})
	if err != nil {
		r.metrics.Failed.Add(1)
		return routeResult{status: http.StatusInternalServerError, errMsg: err.Error()}
	}

	var v vetd.Verdict
	from := -1
	replicas := r.core.Ring().Replicas(vetd.VerdictKey(hash, r.tier))
	acks, _ := r.core.Replicate(ctx, replicas, 1, func(ctx context.Context, i int) ring.Outcome {
		status, err := r.core.Call(ctx, i, "POST", r.vetPath, "application/json", body, func(status int, rd io.Reader) error {
			if status != http.StatusOK {
				return nil
			}
			v = vetd.Verdict{}
			if err := json.NewDecoder(rd).Decode(&v); err != nil {
				return fmt.Errorf("decode peer verdict: %w", err)
			}
			return nil
		})
		from = i // Replicate stops at the first ack, so this is the answering peer
		return ring.Classify(status, err)
	})
	if acks == 0 {
		return r.fallback(ctx, app, hash)
	}
	r.metrics.Replicated.Add(1)
	v.Peer = r.core.PeerName(from)
	return routeResult{verdict: v, status: http.StatusOK}
}

// fallback computes the verdict locally when every replica is
// unreachable, under the core's fallback rule, stamped Degraded — the
// ring answers correctly but admits it routed nothing.
func (r *Router) fallback(ctx context.Context, app *dexir.App, hash string) routeResult {
	var res routeResult
	err := r.core.Fallback(ctx, func() {
		r.metrics.FallbackAnalyses.Add(1)
		vv, err := defense.VetTier(app, r.tier)
		if err != nil {
			r.metrics.Failed.Add(1)
			res = routeResult{status: http.StatusInternalServerError, errMsg: err.Error()}
			return
		}
		v := vetd.NewVerdict(vv, hash, false)
		v.Degraded = true
		r.metrics.Degraded.Add(1)
		res = routeResult{verdict: v, status: http.StatusOK}
	})
	if err != nil {
		return routeResult{status: http.StatusTooManyRequests, errMsg: err.Error()}
	}
	return res
}

func (r *Router) handleVet(w http.ResponseWriter, req *http.Request) {
	var vr vetd.VetRequest
	if err := json.NewDecoder(io.LimitReader(req.Body, r.core.Config().MaxBodyBytes)).Decode(&vr); err != nil {
		r.metrics.BadRequests.Add(1)
		r.core.WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if vr.App == nil {
		r.metrics.BadRequests.Add(1)
		r.core.WriteError(w, http.StatusBadRequest, "missing app")
		return
	}
	res := r.routeOne(req.Context(), vr.App)
	if res.status != http.StatusOK {
		r.core.WriteError(w, res.status, res.errMsg)
		return
	}
	ring.WriteJSON(w, http.StatusOK, res.verdict)
}

func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	var br vetd.BatchRequest
	if err := json.NewDecoder(io.LimitReader(req.Body, r.core.Config().MaxBodyBytes)).Decode(&br); err != nil {
		r.metrics.BadRequests.Add(1)
		r.core.WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(br.Apps) == 0 || len(br.Apps) > r.maxBatch {
		r.metrics.BadRequests.Add(1)
		r.core.WriteError(w, http.StatusBadRequest, fmt.Sprintf("batch size must be 1..%d", r.maxBatch))
		return
	}
	resp := vetd.BatchResponse{Verdicts: make([]vetd.BatchItem, len(br.Apps))}
	for i, app := range br.Apps {
		if app == nil {
			r.metrics.BadRequests.Add(1)
			resp.Verdicts[i] = vetd.BatchItem{Status: http.StatusBadRequest, Error: "missing app"}
			continue
		}
		res := r.routeOne(req.Context(), app)
		if res.status != http.StatusOK {
			resp.Verdicts[i] = vetd.BatchItem{Status: res.status, Error: res.errMsg}
			continue
		}
		v := res.verdict
		resp.Verdicts[i] = vetd.BatchItem{Status: http.StatusOK, Verdict: &v}
	}
	ring.WriteJSON(w, http.StatusOK, resp)
}

// Metrics exposes the counter block (tests).
func (r *Router) Metrics() *Metrics { return &r.metrics }

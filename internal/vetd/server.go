// Package vetd is the scan-before-install vetting service: the paper's
// §VII static defense (defense.Vet over dexir call-graph analysis),
// lifted from a batch CLI into a long-running HTTP server that answers
// verdict queries at install-traffic rates. It is the repository's first
// wall-clock serving layer — simlint's ServingPackages allowlist exempts
// it from the simulation determinism rules — and is built from four
// layers:
//
//  1. a sharded, content-addressed verdict cache (Cache) keyed by the
//     SHA-256 of the app's IR plus the configured analysis tier, with
//     LRU eviction,
//  2. an admission layer with a bounded queue, per-request deadlines and
//     explicit load shedding (429 + Retry-After) so overload degrades
//     gracefully instead of collapsing,
//  3. an analysis pool (pool) that coalesces duplicate in-flight
//     requests per IR hash and fans work onto bounded workers running
//     defense.Vet,
//  4. an observability layer (Metrics) exposing Prometheus text metrics,
//     a JSON stats snapshot and structured per-request logs.
//
// Endpoints: POST /v1/vet, POST /v1/vet/batch, and the ops surface
// every serving daemon shares (ring.Mount): GET /healthz, GET /readyz,
// GET /stats, GET /metrics. cmd/vetd serves it; cmd/vetload is the
// deterministic load generator whose -check mode proves every served
// verdict byte-identical to a direct defense.Vet call.
package vetd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/defense"
	"repro/internal/dexir"
	"repro/internal/ring"
	"repro/internal/staticanalysis"
	"repro/internal/vetstore"
)

// Config tunes a Server. The zero value selects the documented defaults.
type Config struct {
	// CacheCapacity bounds the verdict cache, in entries (default 8192;
	// negative disables caching).
	CacheCapacity int
	// CacheShards is the verdict cache's shard count (default 16).
	CacheShards int
	// QueueDepth bounds the analysis admission queue; a full queue sheds
	// with 429 (default 256).
	QueueDepth int
	// Workers is the analysis pool size (default GOMAXPROCS).
	Workers int
	// Deadline is the per-request analysis deadline; clients may lower
	// (never raise) it per request with ?deadline_ms=N (default 2s).
	Deadline time.Duration
	// MaxBatch bounds the apps per batch request (default 256).
	MaxBatch int
	// RetryAfter is the hint returned with 429 sheds (default 1s).
	RetryAfter time.Duration
	// MaxBodyBytes bounds request bodies (default 16 MiB).
	MaxBodyBytes int64
	// LogWriter, when non-nil, receives one structured JSON line per vet
	// request.
	LogWriter io.Writer
	// Tier is the static precision tier every analysis runs at (default
	// Tier0, the paper baseline). The tier is part of every cache and
	// coalescing key, so restarting at a different tier can never serve a
	// verdict computed at the old one.
	Tier staticanalysis.Tier
	// Store, when non-nil, is the crash-safe persistent verdict store
	// (internal/vetstore) behind the in-memory cache: every completed
	// analysis is appended and fsynced, and a cache miss consults the
	// store before admitting an analysis. A node SIGKILLed and restarted
	// on the same store serves its recovered verdicts byte-for-byte
	// without re-analyzing. The caller owns the store's lifecycle (Open
	// before New, Close after Server.Close).
	Store *vetstore.Store
}

func (c Config) withDefaults() Config {
	if c.CacheCapacity == 0 {
		c.CacheCapacity = 8192
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 16
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Deadline <= 0 {
		c.Deadline = 2 * time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	return c
}

// Server is the vetting service; it implements http.Handler.
type Server struct {
	cfg     Config
	cache   *Cache
	store   *vetstore.Store
	pool    *pool
	metrics *Metrics
	logger  *requestLogger
	mux     *http.ServeMux
}

// New assembles a server and starts its analysis workers. Callers must
// Close it to stop them.
func New(cfg Config) *Server {
	return newServer(cfg, func(app *dexir.App) (defense.VetVerdict, error) {
		return defense.VetTier(app, cfg.Tier)
	})
}

// newServer is New with an injectable analysis function (tests count and
// slow it down).
func newServer(cfg Config, analyze func(*dexir.App) (defense.VetVerdict, error)) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   NewCache(cfg.CacheCapacity, cfg.CacheShards),
		store:   cfg.Store,
		metrics: &Metrics{},
		logger:  newRequestLogger(cfg.LogWriter),
		mux:     http.NewServeMux(),
	}
	s.pool = newPool(cfg.Workers, cfg.QueueDepth, s.cache, s.store, s.metrics, analyze)
	s.mux.HandleFunc("POST /v1/vet", s.handleVet)
	s.mux.HandleFunc("POST /v1/vet/batch", s.handleBatch)
	// Liveness stays 200 even while the node sheds; readiness is
	// whether the node will usefully accept a vet request right now. It
	// is not ready once shutdown has begun or while the admission queue
	// is at the shed threshold — a node that would answer 429 is alive
	// but should not receive routed traffic, which is exactly the
	// distinction the vetrouter's health probes key on. The store state
	// is reported for operators; a configured store is always
	// "recovered" because Open finishes recovery before the server
	// exists.
	store := "none"
	if s.store != nil {
		store = "recovered"
	}
	ring.Mount(s.mux, ring.Ops{
		Health: func() []any { return []any{"queue_depth", s.pool.depth()} },
		Ready: func() (bool, bool, []any) {
			depth := s.pool.depth()
			return s.pool.isClosed(), depth >= cfg.QueueDepth, []any{"queue_depth", depth, "queue_cap", cfg.QueueDepth, "store", store}
		},
		FullState: "shedding",
		Stats:     func() any { return s.Snapshot() },
		Metrics:   s.writeProm,
		Calls:     &s.metrics.OpsCalls,
	})
	return s
}

// Metrics exposes the server's counters (read-only use).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Close stops admission and waits for in-flight analyses to finish.
func (s *Server) Close() { s.pool.close() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// outcome labels for logs and tests.
const (
	outcomeHit      = "hit"
	outcomeStoreHit = "store-hit"
	outcomeMiss     = "miss"
	outcomeShed     = "shed"
	outcomeExpired  = "expired"
	outcomeError    = "error"
)

// vetOne classifies and resolves a single parsed app: Requests++, then
// exactly one of cache hit, pool admission (miss) or shed. It returns
// the wire verdict, the HTTP-style status and the outcome label.
func (s *Server) vetOne(ctx context.Context, app *dexir.App) (Verdict, int, string, error) {
	hash, err := HashIR(app)
	if err != nil {
		return Verdict{}, http.StatusBadRequest, outcomeError, err
	}
	// The raw IR hash is the wire-visible content address; the cache and
	// the in-flight coalescing map key on (hash, tier) so a tier change
	// can never surface a stale verdict.
	key := VerdictKey(hash, s.cfg.Tier)
	s.metrics.Requests.Add(1)
	if v, ok := s.cache.Get(key); ok {
		s.metrics.Hits.Add(1)
		s.countVerdict(v)
		return NewVerdict(v, hash, true), http.StatusOK, outcomeHit, nil
	}
	// Memory miss: consult the persistent store before spending an
	// analysis. A restarted node answers its recovered keyspace here —
	// counted as a Hit (subset StoreHits) so the exclusive classification
	// hits+misses+sheds == requests is preserved — and the verdict is
	// promoted into the memory cache for the next request.
	if s.store != nil {
		if v, ok, serr := s.store.Get(key); serr == nil && ok {
			s.cache.Put(key, v)
			s.metrics.Hits.Add(1)
			s.metrics.StoreHits.Add(1)
			s.countVerdict(v)
			return NewVerdict(v, hash, true), http.StatusOK, outcomeStoreHit, nil
		} else if serr != nil {
			s.metrics.StoreErrors.Add(1)
		}
	}
	v, lateHit, err := s.pool.vet(ctx, key, app)
	switch {
	case errors.Is(err, ErrShed):
		return Verdict{IRHash: hash}, http.StatusTooManyRequests, outcomeShed, err
	case errors.Is(err, ErrClosed):
		return Verdict{IRHash: hash}, http.StatusServiceUnavailable, outcomeError, err
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return Verdict{IRHash: hash}, http.StatusGatewayTimeout, outcomeExpired, err
	case err != nil:
		return Verdict{IRHash: hash}, http.StatusInternalServerError, outcomeError, err
	}
	s.countVerdict(v)
	if lateHit {
		return NewVerdict(v, hash, true), http.StatusOK, outcomeHit, nil
	}
	return NewVerdict(v, hash, false), http.StatusOK, outcomeMiss, nil
}

func (s *Server) countVerdict(v defense.VetVerdict) {
	if v.Allow {
		s.metrics.Allows.Add(1)
	} else {
		s.metrics.Denies.Add(1)
	}
}

// deadlineFor derives the request context: the configured deadline,
// lowered (never raised) by an optional ?deadline_ms=N.
func (s *Server) deadlineFor(r *http.Request) (context.Context, context.CancelFunc) {
	d := s.cfg.Deadline
	if raw := r.URL.Query().Get("deadline_ms"); raw != "" {
		if ms, err := strconv.Atoi(raw); err == nil && ms > 0 {
			if cd := time.Duration(ms) * time.Millisecond; cd < d {
				d = cd
			}
		}
	}
	return context.WithTimeout(r.Context(), d)
}

func (s *Server) handleVet(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.metrics.VetCalls.Add(1)
	var req VetRequest
	if err := s.decode(w, r, &req); err != nil {
		s.badRequest(w, start, err)
		return
	}
	if req.App == nil || req.App.Package == "" {
		s.badRequest(w, start, fmt.Errorf("vetd: request carries no app IR"))
		return
	}
	s.metrics.DecodeLatency.Observe(time.Since(start))
	ctx, cancel := s.deadlineFor(r)
	defer cancel()
	v, status, outcome, err := s.vetOne(ctx, req.App)
	if status != http.StatusOK {
		s.writeError(w, status, err)
	} else {
		ring.WriteJSON(w, status, v)
	}
	lat := time.Since(start)
	s.metrics.TotalLatency.Observe(lat)
	rec := requestLog{
		Time:      start.UTC().Format(time.RFC3339Nano),
		Endpoint:  "vet",
		IRHash:    v.IRHash,
		Package:   req.App.Package,
		Outcome:   outcome,
		Status:    status,
		LatencyUS: lat.Microseconds(),
	}
	if status == http.StatusOK {
		allow := v.Allow
		rec.Allow = &allow
	}
	s.logger.log(rec)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.metrics.BatchCalls.Add(1)
	var req BatchRequest
	if err := s.decode(w, r, &req); err != nil {
		s.badRequest(w, start, err)
		return
	}
	if len(req.Apps) == 0 {
		s.badRequest(w, start, fmt.Errorf("vetd: empty batch"))
		return
	}
	if len(req.Apps) > s.cfg.MaxBatch {
		s.badRequest(w, start, fmt.Errorf("vetd: batch of %d exceeds limit %d", len(req.Apps), s.cfg.MaxBatch))
		return
	}
	s.metrics.DecodeLatency.Observe(time.Since(start))
	ctx, cancel := s.deadlineFor(r)
	defer cancel()

	// Fan the items onto the shared pool concurrently — a batch's
	// duplicates coalesce just like cross-client duplicates — and
	// assemble per-item results in request order.
	items := make([]BatchItem, len(req.Apps))
	done := make(chan int, len(req.Apps))
	for i := range req.Apps {
		go func(i int) {
			app := req.Apps[i]
			if app == nil || app.Package == "" {
				s.metrics.BadRequests.Add(1)
				items[i] = BatchItem{Status: http.StatusBadRequest, Error: "no app IR"}
			} else if v, status, _, err := s.vetOne(ctx, app); err != nil {
				items[i] = BatchItem{Status: status, Error: err.Error()}
			} else {
				items[i] = BatchItem{Status: status, Verdict: &v}
			}
			done <- i
		}(i)
	}
	for range req.Apps {
		<-done
	}
	ring.WriteJSON(w, http.StatusOK, BatchResponse{Verdicts: items})
	lat := time.Since(start)
	s.metrics.TotalLatency.Observe(lat)
	s.logger.log(requestLog{
		Time:      start.UTC().Format(time.RFC3339Nano),
		Endpoint:  "batch",
		Outcome:   fmt.Sprintf("batch[%d]", len(req.Apps)),
		Status:    http.StatusOK,
		LatencyUS: lat.Microseconds(),
	})
}

// decode reads a bounded JSON body into dst.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) error {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("vetd: decode request: %w", err)
	}
	return nil
}

func (s *Server) badRequest(w http.ResponseWriter, start time.Time, err error) {
	s.metrics.BadRequests.Add(1)
	s.writeError(w, http.StatusBadRequest, err)
	lat := time.Since(start)
	s.metrics.TotalLatency.Observe(lat)
	s.logger.log(requestLog{
		Time:      start.UTC().Format(time.RFC3339Nano),
		Endpoint:  "vet",
		Outcome:   "bad-request",
		Status:    http.StatusBadRequest,
		LatencyUS: lat.Microseconds(),
	})
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	ring.WriteError(w, status, err.Error(), s.cfg.RetryAfter)
}

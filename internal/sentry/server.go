package sentry

import (
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/ring"
)

// ServerConfig tunes a Server. The zero value selects the documented
// defaults.
type ServerConfig struct {
	// Engine configures the detection engine.
	Engine Config
	// QueueDepth bounds the batches admitted concurrently; a full gate
	// sheds with 429 + Retry-After and the shed batch's device is
	// accounted via Engine.MarkShed (default 64). This is vetd's
	// admission design with the queue folded into the handlers: a
	// token reserves a processing slot, and with no token free the
	// request is refused immediately instead of queuing without bound.
	QueueDepth int
	// MaxBodyBytes bounds ingest bodies (default 4 MiB).
	MaxBodyBytes int64
	// RetryAfter is the hint returned with 429 sheds (default 1s).
	RetryAfter time.Duration

	// procDelay stalls each admitted batch while it holds its gate
	// token; tests use it to force contention and shedding.
	procDelay time.Duration
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Server is the streaming detection service; it implements
// http.Handler.
//
// Endpoints: POST /v1/ingest?device=ID (wire-format record batch for
// one device), GET /v1/report (deterministic fleet snapshot),
// GET /v1/flagged?device=ID (was this device ever flagged — answered
// from restored journal state after a crash), POST /v1/config (live
// rule-set swap, see config.go), GET /healthz, GET /readyz,
// GET /metrics, GET /stats.
type Server struct {
	cfg     ServerConfig
	engine  *Engine
	metrics *Metrics
	gate    chan struct{}
	mux     *http.ServeMux
	closed  atomic.Bool
}

// NewServer assembles a server around a fresh engine.
func NewServer(cfg ServerConfig) (*Server, error) {
	cfg = cfg.withDefaults()
	engine, err := NewEngine(cfg.Engine)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		engine:  engine,
		metrics: &Metrics{},
		gate:    make(chan struct{}, cfg.QueueDepth),
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	s.mux.HandleFunc("GET /v1/report", s.handleReport)
	s.mux.HandleFunc("GET /v1/flagged", s.handleFlagged)
	s.mux.HandleFunc("POST /v1/config", s.handleConfig)
	// Readiness: the node will usefully admit a batch right now. Not
	// ready once shutdown began or while the admission gate is
	// saturated — a node that would answer 429 is alive but should not
	// receive routed traffic.
	ring.Mount(s.mux, ring.Ops{
		Health: func() []any { return []any{"in_flight", len(s.gate)} },
		Ready: func() (bool, bool, []any) {
			inflight := len(s.gate)
			return s.closed.Load(), inflight >= s.cfg.QueueDepth, []any{"in_flight", inflight, "gate_cap", s.cfg.QueueDepth}
		},
		FullState: "shedding",
		Stats:     func() any { return s.stats() },
		Metrics:   s.writeProm,
		Calls:     &s.metrics.OpsCalls,
	})
	return s, nil
}

// Engine exposes the underlying detector (read-mostly use: snapshots,
// detection queries).
func (s *Server) Engine() *Engine { return s.engine }

// Metrics exposes the server's counters (read-only use).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Close stops admission: subsequent ingests are refused with 503.
// Batches already inside the gate complete. Report and observability
// endpoints keep answering so a draining node can still be inspected.
func (s *Server) Close() { s.closed.Store(true) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// IngestResponse answers a successful ingest.
type IngestResponse struct {
	Device   string `json:"device"`
	Records  int    `json:"records"`
	Detected bool   `json:"detected"`
	// Degraded is set by the ring router when the batch was absorbed by
	// its local fallback engine because no peer acked; a plain sentryd
	// never sets it.
	Degraded bool `json:"degraded,omitempty"`
}

// FlaggedResponse answers GET /v1/flagged?device=ID.
type FlaggedResponse struct {
	Device    string     `json:"device"`
	Flagged   bool       `json:"flagged"`
	Detection *Detection `json:"detection,omitempty"`
}

// ConfigResponse answers a successful POST /v1/config with the version
// now active.
type ConfigResponse struct {
	Version uint64 `json:"version"`
}

// handleIngest classifies every request into exactly one of the four
// batch outcomes (ok / shed / bad / refused) — see the Metrics
// contract — and keeps the device-level accounting exact: a device
// whose batch sheds is marked on the engine before the 429 goes out.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.metrics.IngestCalls.Add(1)
	device := r.URL.Query().Get("device")
	if !ValidToken(device) {
		s.metrics.BadBatches.Add(1)
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("sentry: bad device %q", device))
		return
	}
	if s.closed.Load() {
		s.metrics.RefusedBatches.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("sentry: shutting down"))
		return
	}
	select {
	case s.gate <- struct{}{}:
	default:
		// Admission gate full: shed. The device header is all we need
		// for accounting — the body is never read, so a flood of
		// oversized batches cannot make shedding expensive.
		s.engine.MarkShed(device)
		s.metrics.BatchesShed.Add(1)
		s.writeError(w, http.StatusTooManyRequests, fmt.Errorf("sentry: admission gate full"))
		return
	}
	defer func() { <-s.gate }()
	if s.cfg.procDelay > 0 {
		time.Sleep(s.cfg.procDelay)
	}

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.metrics.BadBatches.Add(1)
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("sentry: read body: %w", err))
		return
	}
	recs, err := DecodeBatch(body)
	if err != nil {
		s.metrics.BadBatches.Add(1)
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(recs) == 0 {
		s.metrics.BadBatches.Add(1)
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("sentry: empty batch"))
		return
	}
	n, err := s.engine.Ingest(device, recs)
	if err != nil {
		// A sequence violation or device mismatch is a client bug, not
		// overload: records before the violation are applied (they are
		// legitimate stream state), the batch is classified bad.
		s.metrics.BadBatches.Add(1)
		s.writeError(w, http.StatusConflict, fmt.Errorf("applied %d: %w", n, err))
		return
	}
	s.metrics.BatchesOK.Add(1)
	ring.WriteJSON(w, http.StatusOK, IngestResponse{
		Device:   device,
		Records:  n,
		Detected: s.engine.Detected(device),
	})
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	s.metrics.ReportCalls.Add(1)
	ring.WriteJSON(w, http.StatusOK, s.engine.Snapshot())
}

// handleFlagged answers "was this device ever flagged". On a node wired
// to a sentrystore the answer survives a SIGKILL: restarts restore the
// journal before serving, so the response bytes match pre-crash ones.
func (s *Server) handleFlagged(w http.ResponseWriter, r *http.Request) {
	s.metrics.FlaggedCalls.Add(1)
	device := r.URL.Query().Get("device")
	if !ValidToken(device) {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("sentry: bad device %q", device))
		return
	}
	resp := FlaggedResponse{Device: device}
	if d, ok := s.engine.DetectionFor(device); ok {
		resp.Flagged = true
		resp.Detection = &d
	}
	ring.WriteJSON(w, http.StatusOK, resp)
}

// handleConfig swaps the live rule set. Allowed even while the node is
// draining: config is control plane, not ingest, and a router healing a
// restarted peer must never be refused. 400 = malformed or invalid
// update, 409 = stale or conflicting version; neither touches the
// running rules.
func (s *Server) handleConfig(w http.ResponseWriter, r *http.Request) {
	s.metrics.ConfigCalls.Add(1)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("sentry: read body: %w", err))
		return
	}
	u, err := ParseConfigUpdate(body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	v, err := s.engine.ApplyConfig(u)
	if err != nil {
		status := http.StatusBadRequest
		if u.Validate() == nil { // codec+bounds fine: it's a version conflict
			status = http.StatusConflict
		}
		s.writeError(w, status, err)
		return
	}
	ring.WriteJSON(w, http.StatusOK, ConfigResponse{Version: v})
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	ring.WriteError(w, status, err.Error(), s.cfg.RetryAfter)
}

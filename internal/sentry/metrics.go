package sentry

import (
	"sync/atomic"

	"repro/internal/ring"
)

// Metrics is the server's observability surface, rendered as Prometheus
// text on GET /metrics and folded into the GET /stats JSON snapshot.
//
// Batch contract (tested): every POST /v1/ingest increments IngestCalls
// and then exactly one of BatchesOK (decoded and fully applied),
// BatchesShed (refused 429 at the admission gate — the device is still
// accounted via Engine.MarkShed), BadBatches (malformed device, body,
// wire record or sequence violation) or RefusedBatches (503 after
// shutdown began), so
//
//	BatchesOK + BatchesShed + BadBatches + RefusedBatches == IngestCalls
//
// holds at every quiescent instant. The device-level identity
// (detected+clean+shed == devices_reported) lives on Engine.Snapshot.
type Metrics struct {
	IngestCalls    atomic.Uint64
	BatchesOK      atomic.Uint64
	BatchesShed    atomic.Uint64
	BadBatches     atomic.Uint64
	RefusedBatches atomic.Uint64

	// Per-endpoint HTTP request counters; the ops endpoints' are
	// counted by ring.Mount.
	ReportCalls  atomic.Uint64
	FlaggedCalls atomic.Uint64
	ConfigCalls  atomic.Uint64
	ring.OpsCalls
}

// writeProm renders every metric in Prometheus text exposition format,
// engine counters and the admission gate's occupancy included.
func (s *Server) writeProm(p ring.Prom) {
	m, e := s.metrics, s.engine
	p.Counter("sentry_ingest_batches_total", "Ingest requests received.", m.IngestCalls.Load())
	p.Counter("sentry_ingest_ok_total", "Batches decoded and fully applied.", m.BatchesOK.Load())
	p.Counter("sentry_shed_total", "Batches refused 429 at admission.", m.BatchesShed.Load())
	p.Counter("sentry_bad_batches_total", "Batches rejected as malformed.", m.BadBatches.Load())
	p.Counter("sentry_refused_total", "Batches refused 503 during shutdown.", m.RefusedBatches.Load())
	p.Counter("sentry_records_total", "Records applied to device windows.", e.records.Load())
	p.Counter("sentry_records_ignored_total", "Applied records no rule consumes.", e.ignored.Load())
	p.Counter("sentry_ring_evictions_total", "Overlay records evicted by RingCap pressure.", e.ringEvictions.Load())
	p.Counter("sentry_detections_total", "Devices flagged.", e.detections.Load())
	p.Counter("sentry_journal_errors_total", "Detection journal appends that failed.", e.journalErrs.Load())
	p.Gauge("sentry_config_version", "Active detection rule-set version.", e.RulesVersion())
	calls := p.Family("sentry_http_requests_total", "counter", "HTTP requests, by endpoint.")
	calls.Sample(m.IngestCalls.Load(), "endpoint", "ingest")
	calls.Sample(m.ReportCalls.Load(), "endpoint", "report")
	calls.Sample(m.FlaggedCalls.Load(), "endpoint", "flagged")
	calls.Sample(m.ConfigCalls.Load(), "endpoint", "config")
	m.OpsCalls.Endpoints(calls)
	p.Gauge("sentry_inflight_batches", "Batches inside the admission gate.", uint64(len(s.gate)))
}

// Stats is the GET /stats JSON snapshot: the device-level accounting
// plus the batch-level counters.
type Stats struct {
	Snapshot
	IngestCalls    uint64 `json:"ingest_calls"`
	BatchesOK      uint64 `json:"batches_ok"`
	BatchesShed    uint64 `json:"batches_shed"`
	BadBatches     uint64 `json:"bad_batches"`
	RefusedBatches uint64 `json:"refused_batches"`
	InFlight       int    `json:"in_flight"`
}

// stats assembles the current Stats from the metrics, engine and gate.
func (s *Server) stats() Stats {
	m := s.metrics
	return Stats{
		Snapshot:       s.engine.Snapshot(),
		IngestCalls:    m.IngestCalls.Load(),
		BatchesOK:      m.BatchesOK.Load(),
		BatchesShed:    m.BatchesShed.Load(),
		BadBatches:     m.BadBatches.Load(),
		RefusedBatches: m.RefusedBatches.Load(),
		InFlight:       len(s.gate),
	}
}

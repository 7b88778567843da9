package sentry

import (
	"fmt"
	"io"
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

	// Per-endpoint HTTP request counters.
	ReportCalls  atomic.Uint64
	FlaggedCalls atomic.Uint64
	ConfigCalls  atomic.Uint64
	HealthCalls  atomic.Uint64
	ReadyCalls   atomic.Uint64
	StatsCalls   atomic.Uint64
	MetricsCalls atomic.Uint64

	// InFlight reads the admission gate's instantaneous occupancy; set
	// by the server.
	InFlight func() int
}

// WriteProm renders every metric in Prometheus text exposition format,
// engine counters included.
func (m *Metrics) WriteProm(w io.Writer, e *Engine) {
	counter := func(name, help string, v uint64) { ring.PromCounter(w, name, help, v) }
	counter("sentry_ingest_batches_total", "Ingest requests received.", m.IngestCalls.Load())
	counter("sentry_ingest_ok_total", "Batches decoded and fully applied.", m.BatchesOK.Load())
	counter("sentry_shed_total", "Batches refused 429 at admission.", m.BatchesShed.Load())
	counter("sentry_bad_batches_total", "Batches rejected as malformed.", m.BadBatches.Load())
	counter("sentry_refused_total", "Batches refused 503 during shutdown.", m.RefusedBatches.Load())
	counter("sentry_records_total", "Records applied to device windows.", e.records.Load())
	counter("sentry_records_ignored_total", "Applied records no rule consumes.", e.ignored.Load())
	counter("sentry_ring_evictions_total", "Overlay records evicted by RingCap pressure.", e.ringEvictions.Load())
	counter("sentry_detections_total", "Devices flagged.", e.detections.Load())
	counter("sentry_journal_errors_total", "Detection journal appends that failed.", e.journalErrs.Load())
	fmt.Fprintf(w, "# HELP sentry_config_version Active detection rule-set version.\n# TYPE sentry_config_version gauge\nsentry_config_version %d\n", e.RulesVersion())
	for _, ep := range []struct {
		name string
		v    uint64
	}{
		{"ingest", m.IngestCalls.Load()}, {"report", m.ReportCalls.Load()},
		{"flagged", m.FlaggedCalls.Load()}, {"config", m.ConfigCalls.Load()},
		{"healthz", m.HealthCalls.Load()}, {"readyz", m.ReadyCalls.Load()},
		{"stats", m.StatsCalls.Load()}, {"metrics", m.MetricsCalls.Load()},
	} {
		fmt.Fprintf(w, "sentry_http_requests_total{endpoint=%q} %d\n", ep.name, ep.v)
	}
	if m.InFlight != nil {
		fmt.Fprintf(w, "# HELP sentry_inflight_batches Batches inside the admission gate.\n# TYPE sentry_inflight_batches gauge\nsentry_inflight_batches %d\n", m.InFlight())
	}
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

// Snapshot assembles the current Stats from the metrics and engine.
func (m *Metrics) Snapshot(e *Engine) Stats {
	s := Stats{
		Snapshot:       e.Snapshot(),
		IngestCalls:    m.IngestCalls.Load(),
		BatchesOK:      m.BatchesOK.Load(),
		BatchesShed:    m.BatchesShed.Load(),
		BadBatches:     m.BadBatches.Load(),
		RefusedBatches: m.RefusedBatches.Load(),
	}
	if m.InFlight != nil {
		s.InFlight = m.InFlight()
	}
	return s
}

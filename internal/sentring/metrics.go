package sentring

import (
	"sync/atomic"

	"repro/internal/ring"
)

// Metrics is the router's observability surface.
//
// Batch contract (tested): every POST /v1/ingest increments IngestCalls
// and then either lands on BadBatches (rejected before routing) or
// RefusedBatches (503 after shutdown began), or increments Batches and
// exactly one of
//
//	Routed   — acked by at least one ring replica
//	Degraded — no replica acked; absorbed by the local fallback engine
//	Sheds    — rejected 429 (replicas unreachable and fallback full)
//	Failed   — rejected by the ring as a stream conflict, or the
//	           fallback ingest itself failed
//
// so Routed + Degraded + Sheds + Failed == Batches and
// Batches + BadBatches + RefusedBatches == IngestCalls at every
// quiescent instant (Sheds and the attempt-level and probe counters
// come from the embedded ring.Counters). Retries, acks and breaker
// skips (an attempt not sent because the peer's breaker refused) are
// attempt-level counters and do not participate in the batch-level
// identity.
type Metrics struct {
	ring.Counters

	IngestCalls    atomic.Uint64
	Batches        atomic.Uint64
	Routed         atomic.Uint64
	Degraded       atomic.Uint64
	Failed         atomic.Uint64
	BadBatches     atomic.Uint64
	RefusedBatches atomic.Uint64

	// Attempt-level counters beside the core's.
	Acks    atomic.Uint64 // 200 acks from peers
	DupAcks atomic.Uint64 // 409 after a transport error: already applied

	// ConfigPushes counts config fan-out attempts to peers (including
	// probe-recovery re-pushes); ConfigPushErrs the ones that failed.
	ConfigPushes   atomic.Uint64
	ConfigPushErrs atomic.Uint64

	// FallbackIngests counts local fallback engine ingests (the degraded
	// path's work).
	FallbackIngests atomic.Uint64
}

// Stats is the router's GET /stats JSON snapshot. Service is
// "sentryrouter", the discriminator load generators key on to pick the
// right accounting invariant.
type Stats struct {
	Service        string `json:"service"`
	IngestCalls    uint64 `json:"ingest_calls"`
	Batches        uint64 `json:"batches"`
	Routed         uint64 `json:"routed"`
	Degraded       uint64 `json:"degraded"`
	Sheds          uint64 `json:"sheds"`
	Failed         uint64 `json:"failed"`
	BadBatches     uint64 `json:"bad_batches"`
	RefusedBatches uint64 `json:"refused_batches"`

	Acks    uint64 `json:"acks"`
	DupAcks uint64 `json:"dup_acks"`

	ConfigVersion  uint64 `json:"config_version"`
	ConfigPushes   uint64 `json:"config_pushes"`
	ConfigPushErrs uint64 `json:"config_push_errors"`

	FallbackIngests uint64 `json:"fallback_ingests"`

	ring.CoreStats
}

// writeProm renders the router's own families; the core's follow.
func (r *Router) writeProm(p ring.Prom) {
	m := &r.metrics
	p.Counter("sentryrouter_ingest_total", "Ingest requests received.", m.IngestCalls.Load())
	p.Counter("sentryrouter_batches_total", "Batches accepted for routing.", m.Batches.Load())
	p.Counter("sentryrouter_routed_total", "Batches acked by at least one ring replica.", m.Routed.Load())
	p.Counter("sentryrouter_degraded_total", "Batches absorbed by the local fallback engine.", m.Degraded.Load())
	p.Counter("sentryrouter_shed_total", "Batches rejected 429.", m.Sheds.Load())
	p.Counter("sentryrouter_failed_total", "Batches rejected as conflicts or failed internally.", m.Failed.Load())
	p.Counter("sentryrouter_bad_batches_total", "Requests rejected before routing.", m.BadBatches.Load())
	p.Counter("sentryrouter_refused_total", "Requests refused 503 during shutdown.", m.RefusedBatches.Load())
	p.Counter("sentryrouter_acks_total", "200 acks from peers.", m.Acks.Load())
	p.Counter("sentryrouter_dup_acks_total", "409 duplicate acks after a transport error.", m.DupAcks.Load())
	p.Counter("sentryrouter_config_pushes_total", "Config fan-out attempts to peers.", m.ConfigPushes.Load())
	p.Counter("sentryrouter_config_push_errors_total", "Config fan-out attempts that failed.", m.ConfigPushErrs.Load())
	p.Counter("sentryrouter_fallback_ingests_total", "Local fallback engine ingests.", m.FallbackIngests.Load())
	p.Gauge("sentryrouter_config_version", "Active detection rule-set version.", r.local.RulesVersion())
}

// Snapshot assembles the current Stats.
func (r *Router) Snapshot() Stats {
	m := &r.metrics
	return Stats{
		Service:         "sentryrouter",
		IngestCalls:     m.IngestCalls.Load(),
		Batches:         m.Batches.Load(),
		Routed:          m.Routed.Load(),
		Degraded:        m.Degraded.Load(),
		Sheds:           m.Sheds.Load(),
		Failed:          m.Failed.Load(),
		BadBatches:      m.BadBatches.Load(),
		RefusedBatches:  m.RefusedBatches.Load(),
		Acks:            m.Acks.Load(),
		DupAcks:         m.DupAcks.Load(),
		ConfigVersion:   r.local.RulesVersion(),
		ConfigPushes:    m.ConfigPushes.Load(),
		ConfigPushErrs:  m.ConfigPushErrs.Load(),
		FallbackIngests: m.FallbackIngests.Load(),
		CoreStats:       r.core.Stats(),
	}
}

package vetring

import (
	"sync/atomic"

	"repro/internal/ring"
)

// Metrics is the router's observability surface.
//
// Counter contract (tested): every successfully parsed vet request —
// batch items included — increments Requests and then exactly one of
//
//	Replicated — answered by a ring peer
//	Degraded   — every replica unreachable; answered by local fallback
//	Sheds      — rejected 429 (peers saturated and fallback full)
//	Failed     — internal error (fallback analysis failed)
//
// so Replicated + Degraded + Sheds + Failed == Requests at every
// quiescent instant (Sheds and the attempt-level and probe counters
// come from the embedded ring.Counters). Retries, failovers and breaker
// skips (an attempt not sent because the peer's breaker refused) are
// attempt-level counters and do not participate in the request-level
// identity.
type Metrics struct {
	ring.Counters

	Requests   atomic.Uint64
	Replicated atomic.Uint64
	Degraded   atomic.Uint64
	Failed     atomic.Uint64

	BadRequests atomic.Uint64

	// Failovers counts moves to the next replica.
	Failovers atomic.Uint64

	// FallbackAnalyses counts local defense.VetTier runs (the degraded
	// path's work; a subset equal to Degraded+Failed).
	FallbackAnalyses atomic.Uint64
}

// Stats is the router's GET /stats JSON snapshot. Service is
// "vetrouter", the discriminator load generators key on to pick the
// right accounting invariant.
type Stats struct {
	Service    string `json:"service"`
	Requests   uint64 `json:"requests"`
	Replicated uint64 `json:"replicated"`
	Degraded   uint64 `json:"degraded"`
	Sheds      uint64 `json:"sheds"`
	Failed     uint64 `json:"failed"`

	BadRequests      uint64 `json:"bad_requests"`
	Failovers        uint64 `json:"failovers"`
	FallbackAnalyses uint64 `json:"fallback_analyses"`

	ring.CoreStats
}

// writeProm renders the router's own families; the core's follow.
func (r *Router) writeProm(p ring.Prom) {
	m := &r.metrics
	p.Counter("vetrouter_requests_total", "Parsed vet requests, batch items included.", m.Requests.Load())
	p.Counter("vetrouter_replicated_total", "Requests answered by a ring peer.", m.Replicated.Load())
	p.Counter("vetrouter_degraded_total", "Requests answered by local fallback.", m.Degraded.Load())
	p.Counter("vetrouter_shed_total", "Requests rejected 429.", m.Sheds.Load())
	p.Counter("vetrouter_failed_total", "Requests failed internally.", m.Failed.Load())
	p.Counter("vetrouter_bad_requests_total", "Requests rejected before classification.", m.BadRequests.Load())
	p.Counter("vetrouter_failovers_total", "Moves to the next replica.", m.Failovers.Load())
	p.Counter("vetrouter_fallback_analyses_total", "Local fallback analyses.", m.FallbackAnalyses.Load())
}

// Snapshot assembles the current Stats.
func (r *Router) Snapshot() Stats {
	m := &r.metrics
	return Stats{
		Service:          "vetrouter",
		Requests:         m.Requests.Load(),
		Replicated:       m.Replicated.Load(),
		Degraded:         m.Degraded.Load(),
		Sheds:            m.Sheds.Load(),
		Failed:           m.Failed.Load(),
		BadRequests:      m.BadRequests.Load(),
		Failovers:        m.Failovers.Load(),
		FallbackAnalyses: m.FallbackAnalyses.Load(),
		CoreStats:        r.core.Stats(),
	}
}

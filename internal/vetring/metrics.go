package vetring

import (
	"io"
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

// PeerStats is one peer's slice of the /stats snapshot.
type PeerStats = ring.PeerStats

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

	BadRequests  uint64 `json:"bad_requests"`
	Retries      uint64 `json:"retries"`
	Failovers    uint64 `json:"failovers"`
	Peer429s     uint64 `json:"peer_429s"`
	PeerErrors   uint64 `json:"peer_errors"`
	BreakerSkips uint64 `json:"breaker_skips"`
	ProbeOK      uint64 `json:"probe_ok"`
	ProbeFail    uint64 `json:"probe_fail"`

	FallbackAnalyses uint64 `json:"fallback_analyses"`

	Peers []PeerStats `json:"peers"`
}

// WriteProm renders the router metrics in Prometheus text exposition
// format.
func (r *Router) WriteProm(w io.Writer) {
	m := &r.metrics
	counter := func(name, help string, v uint64) { ring.PromCounter(w, name, help, v) }
	counter("vetrouter_requests_total", "Parsed vet requests, batch items included.", m.Requests.Load())
	counter("vetrouter_replicated_total", "Requests answered by a ring peer.", m.Replicated.Load())
	counter("vetrouter_degraded_total", "Requests answered by local fallback.", m.Degraded.Load())
	counter("vetrouter_shed_total", "Requests rejected 429.", m.Sheds.Load())
	counter("vetrouter_failed_total", "Requests failed internally.", m.Failed.Load())
	counter("vetrouter_bad_requests_total", "Requests rejected before classification.", m.BadRequests.Load())
	counter("vetrouter_retries_total", "Attempt re-sends after retryable failures.", m.Retries.Load())
	counter("vetrouter_failovers_total", "Moves to the next replica.", m.Failovers.Load())
	counter("vetrouter_peer_429_total", "Peer sheds observed.", m.Peer429s.Load())
	counter("vetrouter_peer_errors_total", "Peer transport errors and 5xx.", m.PeerErrs.Load())
	counter("vetrouter_breaker_skips_total", "Replica attempts not sent because the peer's breaker refused.", m.BreakerSkips.Load())
	counter("vetrouter_probe_ok_total", "Successful health probes.", m.ProbeOK.Load())
	counter("vetrouter_probe_fail_total", "Failed health probes.", m.ProbeFail.Load())
	counter("vetrouter_fallback_analyses_total", "Local fallback analyses.", m.FallbackAnalyses.Load())
	r.core.WritePeerProm(w, "vetrouter", "Requests served per peer.")
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
		Retries:          m.Retries.Load(),
		Failovers:        m.Failovers.Load(),
		Peer429s:         m.Peer429s.Load(),
		PeerErrors:       m.PeerErrs.Load(),
		BreakerSkips:     m.BreakerSkips.Load(),
		ProbeOK:          m.ProbeOK.Load(),
		ProbeFail:        m.ProbeFail.Load(),
		FallbackAnalyses: m.FallbackAnalyses.Load(),
		Peers:            r.core.PeerStats(),
	}
}

package vetd

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/ring"
)

// Metrics is the server's observability surface: monotonic counters and
// per-stage latency histograms, rendered with the queue, cache and store
// gauges as Prometheus text exposition on GET /metrics and as a JSON
// snapshot on GET /stats.
//
// Counter contract (tested): every successfully parsed single-app vet
// request — batch items included — increments Requests and then exactly
// one of Hits (served from the verdict cache), Misses (admitted to the
// analysis plane, whether as singleflight leader or coalesced follower)
// or Sheds (rejected 429 at admission), so
//
//	Hits + Misses + Sheds == Requests
//
// holds at every quiescent instant. Coalesced counts the subset of
// Misses that piggybacked on an in-flight analysis; Expired counts the
// subset whose caller gave up at its deadline (the analysis still
// completes and warms the cache).
type Metrics struct {
	Requests  atomic.Uint64
	Hits      atomic.Uint64
	Misses    atomic.Uint64
	Sheds     atomic.Uint64
	Coalesced atomic.Uint64
	Expired   atomic.Uint64

	Allows atomic.Uint64
	Denies atomic.Uint64

	Analyses    atomic.Uint64 // distinct defense.Vet executions
	BadRequests atomic.Uint64

	// StoreHits counts the subset of Hits served from the persistent
	// store rather than the memory cache (typically right after a restart,
	// before the cache re-warms). StoreErrors counts failed store reads
	// and writes — the serving path degrades to analysis, never errors.
	StoreHits   atomic.Uint64
	StoreErrors atomic.Uint64

	// Per-endpoint HTTP request counters; the ops endpoints' are
	// counted by ring.Mount.
	VetCalls   atomic.Uint64
	BatchCalls atomic.Uint64
	ring.OpsCalls

	// Per-stage latency histograms.
	DecodeLatency  ring.Histogram // body read + JSON decode + hashing
	AnalyzeLatency ring.Histogram // one defense.Vet execution, per analysis
	TotalLatency   ring.Histogram // request receipt to response write
}

// writeProm renders every metric in Prometheus text exposition format.
func (s *Server) writeProm(p ring.Prom) {
	m := s.metrics
	p.Counter("vetd_requests_total", "Parsed vet requests, batch items included.", m.Requests.Load())
	p.Counter("vetd_cache_hits_total", "Requests served from the verdict cache.", m.Hits.Load())
	p.Counter("vetd_cache_misses_total", "Requests admitted to the analysis plane.", m.Misses.Load())
	p.Counter("vetd_shed_total", "Requests rejected 429 at admission.", m.Sheds.Load())
	p.Counter("vetd_coalesced_total", "Misses that joined an in-flight analysis.", m.Coalesced.Load())
	p.Counter("vetd_deadline_expired_total", "Requests that hit their deadline while waiting.", m.Expired.Load())
	verdicts := p.Family("vetd_verdicts_total", "counter", "Verdicts served, by outcome.")
	verdicts.Sample(m.Allows.Load(), "verdict", "allow")
	verdicts.Sample(m.Denies.Load(), "verdict", "deny")
	p.Counter("vetd_analyses_total", "Distinct defense.Vet executions.", m.Analyses.Load())
	p.Counter("vetd_bad_requests_total", "Requests rejected before classification.", m.BadRequests.Load())
	p.Counter("vetd_store_hits_total", "Hits served from the persistent store.", m.StoreHits.Load())
	p.Counter("vetd_store_errors_total", "Failed persistent-store reads and writes.", m.StoreErrors.Load())
	p.Counter("vetd_cache_evictions_total", "Verdicts evicted by LRU pressure.", s.cache.Evictions())
	calls := p.Family("vetd_http_requests_total", "counter", "HTTP requests, by endpoint.")
	calls.Sample(m.VetCalls.Load(), "endpoint", "vet")
	calls.Sample(m.BatchCalls.Load(), "endpoint", "batch")
	m.OpsCalls.Endpoints(calls)
	p.Gauge("vetd_queue_depth", "Admission queue depth.", uint64(s.pool.depth()))
	p.Gauge("vetd_cache_entries", "Verdicts currently cached.", uint64(s.cache.Len()))
	if s.store != nil {
		p.Gauge("vetd_store_entries", "Verdicts in the persistent store.", uint64(s.store.Len()))
	}
	latency := p.Family("vetd_latency_seconds", "histogram", "Per-stage request latency.")
	latency.Histogram(&m.DecodeLatency, "stage", "decode")
	latency.Histogram(&m.AnalyzeLatency, "stage", "analyze")
	latency.Histogram(&m.TotalLatency, "stage", "total")
}

// Stats is the GET /stats JSON snapshot. Service discriminates who is
// answering — "vetd" for a node, "vetrouter" for the ring router — so a
// load generator pointed at either knows which accounting invariant to
// check (hits+misses+sheds for a node; replicated+degraded+shed+failed
// for the router, which reports its own stats type).
type Stats struct {
	Service   string `json:"service"`
	Requests  uint64 `json:"requests"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Sheds     uint64 `json:"sheds"`
	Coalesced uint64 `json:"coalesced"`
	Expired   uint64 `json:"expired"`

	Allows      uint64 `json:"allows"`
	Denies      uint64 `json:"denies"`
	Analyses    uint64 `json:"analyses"`
	BadRequests uint64 `json:"bad_requests"`

	StoreHits   uint64 `json:"store_hits"`
	StoreErrors uint64 `json:"store_errors"`

	QueueDepth     int    `json:"queue_depth"`
	CacheEntries   int    `json:"cache_entries"`
	CacheEvictions uint64 `json:"cache_evictions"`
	StoreEntries   int    `json:"store_entries"`

	HitRate float64 `json:"hit_rate"`

	TotalP50Sec   float64 `json:"total_p50_sec"`
	TotalP99Sec   float64 `json:"total_p99_sec"`
	AnalyzeP50Sec float64 `json:"analyze_p50_sec"`
	AnalyzeP99Sec float64 `json:"analyze_p99_sec"`
}

// Snapshot assembles the current Stats.
func (s *Server) Snapshot() Stats {
	m := s.metrics
	st := Stats{
		Service:     "vetd",
		Requests:    m.Requests.Load(),
		Hits:        m.Hits.Load(),
		Misses:      m.Misses.Load(),
		Sheds:       m.Sheds.Load(),
		Coalesced:   m.Coalesced.Load(),
		Expired:     m.Expired.Load(),
		Allows:      m.Allows.Load(),
		Denies:      m.Denies.Load(),
		Analyses:    m.Analyses.Load(),
		BadRequests: m.BadRequests.Load(),
		StoreHits:   m.StoreHits.Load(),
		StoreErrors: m.StoreErrors.Load(),

		QueueDepth:     s.pool.depth(),
		CacheEntries:   s.cache.Len(),
		CacheEvictions: s.cache.Evictions(),

		TotalP50Sec:   m.TotalLatency.Quantile(0.50),
		TotalP99Sec:   m.TotalLatency.Quantile(0.99),
		AnalyzeP50Sec: m.AnalyzeLatency.Quantile(0.50),
		AnalyzeP99Sec: m.AnalyzeLatency.Quantile(0.99),
	}
	if s.store != nil {
		st.StoreEntries = s.store.Len()
	}
	if st.Requests > 0 {
		st.HitRate = float64(st.Hits) / float64(st.Requests)
	}
	return st
}

// requestLog is one structured per-request log line, emitted as JSONL.
type requestLog struct {
	Time      string `json:"t"`
	Endpoint  string `json:"endpoint"`
	IRHash    string `json:"ir_hash,omitempty"`
	Package   string `json:"package,omitempty"`
	Outcome   string `json:"outcome"` // hit|miss|shed|expired|error|bad-request
	Status    int    `json:"status"`
	Allow     *bool  `json:"allow,omitempty"`
	LatencyUS int64  `json:"latency_us"`
}

// requestLogger serializes structured log writes; a nil logger (or nil
// writer) disables logging.
type requestLogger struct {
	mu sync.Mutex
	w  io.Writer
}

func newRequestLogger(w io.Writer) *requestLogger {
	if w == nil {
		return nil
	}
	return &requestLogger{w: w}
}

func (l *requestLogger) log(rec requestLog) {
	if l == nil {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	l.mu.Lock()
	l.w.Write(append(b, '\n'))
	l.mu.Unlock()
}

package vetd

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ring"
)

// Metrics is the server's observability surface: monotonic counters, the
// queue-depth gauge and per-stage latency histograms, rendered as
// Prometheus text exposition on GET /metrics and as a JSON snapshot on
// GET /stats.
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

	// Per-endpoint HTTP request counters.
	VetCalls     atomic.Uint64
	BatchCalls   atomic.Uint64
	HealthCalls  atomic.Uint64
	ReadyCalls   atomic.Uint64
	StatsCalls   atomic.Uint64
	MetricsCalls atomic.Uint64

	// Per-stage latency histograms.
	DecodeLatency  Histogram // body read + JSON decode + hashing
	AnalyzeLatency Histogram // one defense.Vet execution, per analysis
	TotalLatency   Histogram // request receipt to response write

	// QueueDepth is set by the server to read the admission queue's
	// instantaneous depth.
	QueueDepth func() int

	// CacheEntries/CacheEvictions are wired to the verdict cache.
	CacheEntries   func() int
	CacheEvictions func() uint64

	// StoreEntries is wired to the persistent store's key count (nil when
	// the server runs without a store).
	StoreEntries func() int
}

// latencyBuckets are the histogram upper bounds, in seconds — spaced for
// a path whose cache hits are microseconds and whose analyses are
// fractions of a millisecond to tens of milliseconds.
var latencyBuckets = [...]float64{
	.00005, .0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5,
}

// Histogram is a fixed-bucket latency histogram with atomic counters;
// the zero value is ready to use.
type Histogram struct {
	counts [len(latencyBuckets) + 1]atomic.Uint64 // last bucket = +Inf
	count  atomic.Uint64
	sumNS  atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	sec := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets[:], sec)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNS.Add(int64(d))
}

// Quantile approximates the q-quantile (0..1) from the bucket counts,
// attributing each bucket's mass to its upper bound — good enough for
// the /stats p50/p99 summary.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum > rank {
			if i < len(latencyBuckets) {
				return latencyBuckets[i]
			}
			return latencyBuckets[len(latencyBuckets)-1] * 2
		}
	}
	return latencyBuckets[len(latencyBuckets)-1] * 2
}

// writeProm emits the histogram in Prometheus text format.
func (h *Histogram) writeProm(w io.Writer, name, labels string) {
	var cum uint64
	for i, ub := range latencyBuckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, labels, trimFloat(ub), cum)
	}
	cum += h.counts[len(latencyBuckets)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, cum)
	fmt.Fprintf(w, "%s_sum{%s} %g\n", name, strings.TrimSuffix(labels, ","), float64(h.sumNS.Load())/1e9)
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, strings.TrimSuffix(labels, ","), h.count.Load())
}

func trimFloat(f float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", f), "0"), ".")
}

// WriteProm renders every metric in Prometheus text exposition format.
func (m *Metrics) WriteProm(w io.Writer) {
	counter := func(name, help string, v uint64) { ring.PromCounter(w, name, help, v) }
	counter("vetd_requests_total", "Parsed vet requests, batch items included.", m.Requests.Load())
	counter("vetd_cache_hits_total", "Requests served from the verdict cache.", m.Hits.Load())
	counter("vetd_cache_misses_total", "Requests admitted to the analysis plane.", m.Misses.Load())
	counter("vetd_shed_total", "Requests rejected 429 at admission.", m.Sheds.Load())
	counter("vetd_coalesced_total", "Misses that joined an in-flight analysis.", m.Coalesced.Load())
	counter("vetd_deadline_expired_total", "Requests that hit their deadline while waiting.", m.Expired.Load())
	fmt.Fprintf(w, "# HELP vetd_verdicts_total Verdicts served, by outcome.\n# TYPE vetd_verdicts_total counter\n")
	fmt.Fprintf(w, "vetd_verdicts_total{verdict=\"allow\"} %d\n", m.Allows.Load())
	fmt.Fprintf(w, "vetd_verdicts_total{verdict=\"deny\"} %d\n", m.Denies.Load())
	counter("vetd_analyses_total", "Distinct defense.Vet executions.", m.Analyses.Load())
	counter("vetd_bad_requests_total", "Requests rejected before classification.", m.BadRequests.Load())
	counter("vetd_store_hits_total", "Hits served from the persistent store.", m.StoreHits.Load())
	counter("vetd_store_errors_total", "Failed persistent-store reads and writes.", m.StoreErrors.Load())
	if m.CacheEvictions != nil {
		counter("vetd_cache_evictions_total", "Verdicts evicted by LRU pressure.", m.CacheEvictions())
	}
	for _, e := range []struct {
		ep string
		v  uint64
	}{
		{"vet", m.VetCalls.Load()}, {"batch", m.BatchCalls.Load()},
		{"healthz", m.HealthCalls.Load()}, {"readyz", m.ReadyCalls.Load()},
		{"stats", m.StatsCalls.Load()}, {"metrics", m.MetricsCalls.Load()},
	} {
		fmt.Fprintf(w, "vetd_http_requests_total{endpoint=%q} %d\n", e.ep, e.v)
	}
	if m.QueueDepth != nil {
		fmt.Fprintf(w, "# HELP vetd_queue_depth Admission queue depth.\n# TYPE vetd_queue_depth gauge\nvetd_queue_depth %d\n", m.QueueDepth())
	}
	if m.CacheEntries != nil {
		fmt.Fprintf(w, "# HELP vetd_cache_entries Verdicts currently cached.\n# TYPE vetd_cache_entries gauge\nvetd_cache_entries %d\n", m.CacheEntries())
	}
	if m.StoreEntries != nil {
		fmt.Fprintf(w, "# HELP vetd_store_entries Verdicts in the persistent store.\n# TYPE vetd_store_entries gauge\nvetd_store_entries %d\n", m.StoreEntries())
	}
	fmt.Fprintf(w, "# HELP vetd_latency_seconds Per-stage request latency.\n# TYPE vetd_latency_seconds histogram\n")
	m.DecodeLatency.writeProm(w, "vetd_latency_seconds", `stage="decode",`)
	m.AnalyzeLatency.writeProm(w, "vetd_latency_seconds", `stage="analyze",`)
	m.TotalLatency.writeProm(w, "vetd_latency_seconds", `stage="total",`)
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
func (m *Metrics) Snapshot() Stats {
	s := Stats{
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

		TotalP50Sec:   m.TotalLatency.Quantile(0.50),
		TotalP99Sec:   m.TotalLatency.Quantile(0.99),
		AnalyzeP50Sec: m.AnalyzeLatency.Quantile(0.50),
		AnalyzeP99Sec: m.AnalyzeLatency.Quantile(0.99),
	}
	if m.QueueDepth != nil {
		s.QueueDepth = m.QueueDepth()
	}
	if m.CacheEntries != nil {
		s.CacheEntries = m.CacheEntries()
	}
	if m.CacheEvictions != nil {
		s.CacheEvictions = m.CacheEvictions()
	}
	if m.StoreEntries != nil {
		s.StoreEntries = m.StoreEntries()
	}
	if s.Requests > 0 {
		s.HitRate = float64(s.Hits) / float64(s.Requests)
	}
	return s
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

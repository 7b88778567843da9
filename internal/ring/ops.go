package ring

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Ops is what one serving daemon hands Mount: its readiness inputs and
// its stats and metrics renderers. Field lists alternate JSON keys and
// values, in the order they are written after "status".
type Ops struct {
	// Health, when non-nil, returns the fields GET /healthz reports
	// after "status":"ok".
	Health func() []any
	// Ready returns whether shutdown has begun, whether the daemon
	// would refuse work right now, and the fields GET /readyz reports.
	Ready func() (closed, full bool, fields []any)
	// FullState names the not-ready state of a full daemon
	// ("shedding", "saturated").
	FullState string
	// Stats returns the GET /stats JSON snapshot.
	Stats func() any
	// Metrics renders the GET /metrics families.
	Metrics func(Prom)
	// Calls, when non-nil, counts the requests to the four endpoints.
	Calls *OpsCalls
}

// OpsCalls counts requests to the ops endpoints, for daemons that
// report HTTP requests by endpoint.
type OpsCalls struct {
	HealthCalls  atomic.Uint64
	ReadyCalls   atomic.Uint64
	StatsCalls   atomic.Uint64
	MetricsCalls atomic.Uint64
}

// Endpoints writes one endpoint-labelled sample per ops endpoint into
// an HTTP-requests family.
func (c *OpsCalls) Endpoints(f Family) {
	f.Sample(c.HealthCalls.Load(), "endpoint", "healthz")
	f.Sample(c.ReadyCalls.Load(), "endpoint", "readyz")
	f.Sample(c.StatsCalls.Load(), "endpoint", "stats")
	f.Sample(c.MetricsCalls.Load(), "endpoint", "metrics")
}

// Mount registers the ops endpoints every serving daemon shares:
// GET /healthz is liveness and always 200; GET /readyz is 503
// "shutting-down" once shutdown has begun, 503 FullState while the
// daemon would refuse work, and 200 "ready" otherwise; GET /stats and
// GET /metrics render the daemon's own snapshot and families.
func Mount(mux *http.ServeMux, o Ops) {
	calls := o.Calls
	if calls == nil {
		calls = new(OpsCalls) // counted, never reported
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		calls.HealthCalls.Add(1)
		var fields []any
		if o.Health != nil {
			fields = o.Health()
		}
		writeStatus(w, http.StatusOK, "ok", fields)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		calls.ReadyCalls.Add(1)
		closed, full, fields := o.Ready()
		switch {
		case closed:
			writeStatus(w, http.StatusServiceUnavailable, "shutting-down", fields)
		case full:
			writeStatus(w, http.StatusServiceUnavailable, o.FullState, fields)
		default:
			writeStatus(w, http.StatusOK, "ready", fields)
		}
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) {
		calls.StatsCalls.Add(1)
		WriteJSON(w, http.StatusOK, o.Stats())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		calls.MetricsCalls.Add(1)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		o.Metrics(Prom{w})
	})
}

// writeStatus writes a one-line JSON status object: "status" first,
// then fields in order.
func writeStatus(w http.ResponseWriter, code int, state string, fields []any) {
	b := fmt.Appendf(nil, `{"status":%q`, state)
	for i := 0; i+1 < len(fields); i += 2 {
		v, _ := json.Marshal(fields[i+1])
		b = fmt.Appendf(b, `,%q:%s`, fields[i], v)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, "}\n"...))
}

// Prom writes the Prometheus text exposition format (version 0.0.4):
// every family is a # HELP and # TYPE header followed by its samples.
type Prom struct{ w io.Writer }

// Family is one family's sample writer.
type Family struct {
	w    io.Writer
	name string
}

// Family writes the header of family name, of type typ ("counter",
// "gauge", "histogram"), and returns its sample writer.
func (p Prom) Family(name, typ, help string) Family {
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return Family{p.w, name}
}

// Counter writes a counter family of one unlabelled sample.
func (p Prom) Counter(name, help string, v uint64) { p.Family(name, "counter", help).Sample(v) }

// Gauge writes a gauge family of one unlabelled sample.
func (p Prom) Gauge(name, help string, v uint64) { p.Family(name, "gauge", help).Sample(v) }

// Sample writes one sample; labels alternate label names and values.
func (f Family) Sample(v uint64, labels ...string) {
	fmt.Fprintf(f.w, "%s%s %d\n", f.name, promLabels(labels), v)
}

// Histogram writes h as one labelled series of a histogram family:
// cumulative buckets, then the sum in seconds and the count.
func (f Family) Histogram(h *Histogram, labels ...string) {
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(latencyBuckets) {
			le = strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", latencyBuckets[i]), "0"), ".")
		}
		fmt.Fprintf(f.w, "%s_bucket%s %d\n", f.name, promLabels(append(slices.Clip(labels), "le", le)), cum)
	}
	fmt.Fprintf(f.w, "%s_sum%s %g\n", f.name, promLabels(labels), float64(h.sumNS.Load())/1e9)
	fmt.Fprintf(f.w, "%s_count%s %d\n", f.name, promLabels(labels), h.count.Load())
}

// promLabels renders alternating label names and values as {k="v",…},
// or nothing when there are none.
func promLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	return "{" + b.String() + "}"
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
// a /stats p50/p99 summary.
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

package ring

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestMountReadinessStates: /readyz is 200 "ready", 503 FullState while
// full, and 503 "shutting-down" once closed, whatever the load; every
// answer carries the daemon's fields in order, and Calls counts each
// endpoint.
func TestMountReadinessStates(t *testing.T) {
	var closed, full bool
	var calls OpsCalls
	mux := http.NewServeMux()
	Mount(mux, Ops{
		Health:    func() []any { return []any{"depth", 3} },
		Ready:     func() (bool, bool, []any) { return closed, full, []any{"depth", 3, "store", "none"} },
		FullState: "shedding",
		Stats:     func() any { return map[string]int{"n": 1} },
		Metrics:   func(p Prom) { p.Counter("x_total", "X.", 7) },
		Calls:     &calls,
	})
	get := func(path string) (int, string, string) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Header().Get("Content-Type"), rec.Body.String()
	}
	if code, _, body := get("/healthz"); code != 200 || body != `{"status":"ok","depth":3}`+"\n" {
		t.Fatalf("healthz %d %q", code, body)
	}
	for _, tc := range []struct {
		closed, full bool
		code         int
		state        string
	}{
		{false, false, 200, "ready"},
		{false, true, 503, "shedding"},
		{true, true, 503, "shutting-down"},
		{true, false, 503, "shutting-down"},
	} {
		closed, full = tc.closed, tc.full
		want := `{"status":"` + tc.state + `","depth":3,"store":"none"}` + "\n"
		if code, ct, body := get("/readyz"); code != tc.code || body != want || ct != "application/json" {
			t.Fatalf("closed=%v full=%v: readyz %d %q %q, want %d %q", tc.closed, tc.full, code, ct, body, tc.code, want)
		}
	}
	if code, _, body := get("/stats"); code != 200 || body != `{"n":1}`+"\n" {
		t.Fatalf("stats %d %q", code, body)
	}
	if code, ct, body := get("/metrics"); code != 200 || ct != "text/plain; version=0.0.4; charset=utf-8" ||
		body != "# HELP x_total X.\n# TYPE x_total counter\nx_total 7\n" {
		t.Fatalf("metrics %d %q %q", code, ct, body)
	}
	if h, r, s, m := calls.HealthCalls.Load(), calls.ReadyCalls.Load(), calls.StatsCalls.Load(), calls.MetricsCalls.Load(); h != 1 || r != 4 || s != 1 || m != 1 {
		t.Fatalf("calls healthz=%d readyz=%d stats=%d metrics=%d, want 1/4/1/1", h, r, s, m)
	}
}

// TestPromWriter pins the exposition text of each family kind: counter,
// gauge, labelled family and labelled histogram series.
func TestPromWriter(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{30 * time.Microsecond, 2 * time.Millisecond, 10 * time.Second} {
		h.Observe(d)
	}
	var b strings.Builder
	p := Prom{&b}
	p.Counter("a_total", "A.", 1)
	p.Gauge("b", "B.", 2)
	f := p.Family("c_total", "counter", "C.")
	f.Sample(3, "k", "v", "q", `x"y`)
	p.Family("d_seconds", "histogram", "D.").Histogram(&h, "stage", "s")
	want := `# HELP a_total A.
# TYPE a_total counter
a_total 1
# HELP b B.
# TYPE b gauge
b 2
# HELP c_total C.
# TYPE c_total counter
c_total{k="v",q="x\"y"} 3
# HELP d_seconds D.
# TYPE d_seconds histogram
d_seconds_bucket{stage="s",le="0.00005"} 1
d_seconds_bucket{stage="s",le="0.0001"} 1
d_seconds_bucket{stage="s",le="0.00025"} 1
d_seconds_bucket{stage="s",le="0.0005"} 1
d_seconds_bucket{stage="s",le="0.001"} 1
d_seconds_bucket{stage="s",le="0.0025"} 2
d_seconds_bucket{stage="s",le="0.005"} 2
d_seconds_bucket{stage="s",le="0.01"} 2
d_seconds_bucket{stage="s",le="0.025"} 2
d_seconds_bucket{stage="s",le="0.05"} 2
d_seconds_bucket{stage="s",le="0.1"} 2
d_seconds_bucket{stage="s",le="0.25"} 2
d_seconds_bucket{stage="s",le="0.5"} 2
d_seconds_bucket{stage="s",le="1"} 2
d_seconds_bucket{stage="s",le="2.5"} 2
d_seconds_bucket{stage="s",le="+Inf"} 3
d_seconds_sum{stage="s"} 10.00203
d_seconds_count{stage="s"} 3
`
	if b.String() != want {
		t.Fatalf("exposition drifted:\n%s\nwant:\n%s", b.String(), want)
	}
	if q50, q99 := h.Quantile(0.5), h.Quantile(0.99); q50 != 0.0025 || q99 != 5 {
		t.Fatalf("quantiles p50=%g p99=%g, want 0.0025 and 5 (twice the last bound)", q50, q99)
	}
	if q := new(Histogram).Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile %g, want 0", q)
	}
}

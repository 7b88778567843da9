package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded from the benchmark's own files, around the calls into
// each layer: the load generator's request (client), the router's
// ServeHTTP (router), each peer attempt the router makes through its
// Config.Transport (attempt), each peer's ServeHTTP (peer) and each
// detection journal append (store.put). An op's spans share its ID; the
// ID and the parent span travel client→router and attempt→peer in two
// request headers, and router→attempt in the request context.
const (
	hdrOp     = "X-Perfbench-Op"
	hdrParent = "X-Perfbench-Parent"
)

// span is one timed call. Times are nanoseconds since the tracer's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     string `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Status is an attempt's HTTP status (0 for a transport error).
	Status int `json:"status,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// opRef names a traced op and the span that caused the current call.
type opRef struct {
	op     string
	parent int64
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) id() int64  { return t.next.Add(1) }
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// handler wraps a server's ServeHTTP in a span named name, taking the op
// and parent from the request headers and handing them on in the request
// context.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op := r.Header.Get(hdrOp)
		if op == "" {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64) // 0 = root
		sp := span{ID: t.id(), Parent: parent, Op: op, Name: name, Start: t.now()}
		h.ServeHTTP(w, r.WithContext(withOp(r.Context(), opRef{op: op, parent: sp.ID})))
		sp.End = t.now()
		t.add(sp)
	})
}

// transport wraps the router's peer transport: every attempt made on
// behalf of a traced op becomes an attempt span, ended when the router
// closes the response body.
type transport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	o, ok := opFrom(req.Context())
	if !ok {
		return tt.base.RoundTrip(req) // health probes
	}
	sp := span{ID: tt.t.id(), Parent: o.parent, Op: o.op, Name: "attempt", Start: tt.t.now()}
	req = req.Clone(req.Context())
	req.Header.Set(hdrOp, o.op)
	req.Header.Set(hdrParent, strconv.FormatInt(sp.ID, 10))
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		sp.End = tt.t.now()
		tt.t.add(sp)
		return nil, err
	}
	sp.Status = resp.StatusCode
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tt.t, sp: sp}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	t    *tracer
	sp   span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.sp.End = b.t.now()
		b.t.add(b.sp)
	})
	return err
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		s, e := x[0], x[1]
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// spanIndex groups spans for self-time queries.
type spanIndex struct {
	byID     map[int64]span
	children map[int64][]span
	byName   map[string][]span
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byID: map[int64]span{}, children: map[int64][]span{}, byName: map[string][]span{}}
	for _, s := range spans {
		ix.byID[s.ID] = s
		ix.children[s.Parent] = append(ix.children[s.Parent], s)
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
	}
	return ix
}

// self is the span's duration minus the part its children cover.
func (ix spanIndex) self(s span) int64 {
	var iv [][2]int64
	for _, c := range ix.children[s.ID] {
		iv = append(iv, [2]int64{c.Start, c.End})
	}
	return s.dur() - covered(iv, s.Start, s.End)
}

// wait is the time inside a router span, after its first attempt began,
// during which no attempt was in flight: the retry backoff.
func (ix spanIndex) wait(s span) int64 {
	var iv [][2]int64
	first := s.End
	for _, c := range ix.children[s.ID] {
		if c.Name != "attempt" {
			continue
		}
		iv = append(iv, [2]int64{c.Start, c.End})
		if c.Start < first {
			first = c.Start
		}
	}
	if len(iv) == 0 {
		return 0
	}
	return s.End - first - covered(iv, first, s.End)
}

// meanSelfUS is the mean self time, in microseconds, of the named spans.
func (ix spanIndex) meanSelfUS(name string) float64 {
	var xs []float64
	for _, s := range ix.byName[name] {
		xs = append(xs, float64(ix.self(s))/1e3)
	}
	return mean(xs)
}

// ringLayer derives the router, transport, peer and client layer metrics
// from a traced serving pass. prefix is the router's layer name.
func ringLayer(r *report, ix spanIndex, prefix, per string) {
	routers := ix.byName["router"]
	attempts := ix.byName["attempt"]
	if len(routers) == 0 {
		return
	}
	acks := 0
	for _, a := range attempts {
		if a.Status == http.StatusOK {
			acks++
		}
	}
	var waits []float64
	for _, s := range routers {
		waits = append(waits, float64(ix.wait(s))/1e6)
	}
	n := float64(len(routers))
	r.layer[prefix+".self_us_per_"+per] = ix.meanSelfUS("router")
	r.layer[prefix+".attempts_per_"+per] = float64(len(attempts)) / n
	if prefix == "sentring" {
		if len(attempts) > 0 {
			r.layer["sentring.acks_per_attempt"] = float64(acks) / float64(len(attempts))
		}
		r.layer["sentring.wait_ms_per_batch"] = mean(waits)
	}
	r.layer["transport.us_per_attempt"] = ix.meanSelfUS("attempt")
	r.layer["http.client_us"] = ix.meanSelfUS("client")
	r.printf("trace: %d %s spans, %d attempts (%d acked), mean backoff wait %.3f ms per %s",
		len(routers), prefix, len(attempts), acks, mean(waits), per)
}

// writeSpans dumps the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

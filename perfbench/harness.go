package main

import (
	"bytes"
	"context"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simrand"
)

// node is one in-process HTTP server on a loopback listener.
type node struct {
	srv  *http.Server
	addr string
	done chan error
}

func listen(h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{srv: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { n.done <- n.srv.Serve(ln) }()
	return n, nil
}

// kill closes the listener and every open connection at once, the way a
// SIGKILLed daemon vanishes: later connects are refused. It waits for the
// serve loop to return and is safe to call twice.
func (n *node) kill() {
	if n.done == nil {
		return
	}
	n.srv.Close()
	<-n.done // Serve returns http.ErrServerClosed
	n.done = nil
}

// peerNames gives the ring's peers stable names, resolved to their
// loopback listeners the way DNS resolves a deployment's peer names, so
// ring placement does not depend on ephemeral ports.
type peerNames struct {
	peers []string
	addrs map[string]string
}

func (p *peerNames) add(name, addr string) {
	if p.addrs == nil {
		p.addrs = map[string]string{}
	}
	p.peers = append(p.peers, name)
	p.addrs[name] = addr
}

// transport is the routers' default peer transport (MaxIdleConnsPerHost
// 16) dialing through the names; traced runs wrap it in attempt spans.
func (p *peerNames) transport(tr *tracer) http.RoundTripper {
	var d net.Dialer
	base := &http.Transport{
		MaxIdleConnsPerHost: 16,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if real, ok := p.addrs[addr]; ok {
				addr = real
			}
			return d.DialContext(ctx, network, addr)
		},
	}
	if tr == nil {
		return base
	}
	return &transport{t: tr, base: base}
}

// newClient is the load generator's HTTP client: at most conns
// connections, one per sender goroutine.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns},
		Timeout:   30 * time.Second,
	}
}

func closeClient(c *http.Client) {
	c.Transport.(*http.Transport).CloseIdleConnections()
}

// schedule is one phase's ops: each sender's queue of op indices, in send
// order, and for an open loop each op's due offset from the phase start.
type schedule struct {
	queues [][]int
	due    []time.Duration // nil for a closed loop
}

// timing records when each op of a phase was sent and answered.
type timing struct {
	start      time.Time
	sent, done []time.Time
	ran        []bool
	// busy is how long every sender had work: until the first one ran out
	// of ops or hit the limit.
	busy time.Duration
}

// drive runs a phase. Open loop: each sender sends each op at its due
// time (or at once, if it is already late) and never waits for the
// system beyond its own previous op. Closed loop: each sender sends its
// next op as soon as the previous one is answered, until its queue is
// empty or limit has passed. do performs one op; its failures are its
// own to count.
func drive(s schedule, n int, limit time.Duration, do func(i int)) timing {
	t := timing{sent: make([]time.Time, n), done: make([]time.Time, n), ran: make([]bool, n)}
	var wg sync.WaitGroup
	var mu sync.Mutex
	t.start = time.Now()
	end := t.start.Add(limit)
	for _, q := range s.queues {
		wg.Add(1)
		go func(q []int) {
			defer wg.Done()
			defer func() {
				idle := time.Since(t.start)
				mu.Lock()
				if t.busy == 0 || idle < t.busy {
					t.busy = idle
				}
				mu.Unlock()
			}()
			for _, i := range q {
				if s.due != nil {
					if wait := time.Until(t.start.Add(s.due[i])); wait > 0 {
						time.Sleep(wait)
					}
				} else if !time.Now().Before(end) {
					return
				}
				t.sent[i] = time.Now()
				do(i)
				t.done[i] = time.Now()
				t.ran[i] = true
			}
		}(q)
	}
	wg.Wait()
	return t
}

// rateParts is how many equal parts rate cuts a closed loop into.
const rateParts = 8

// rate is a closed loop's throughput over the ops answered while every
// sender still had work: those ops, in the order they were answered, are
// cut into rateParts equal parts, each part's weight is divided by the
// time it took, and the mean of the middle half of the parts' rates is
// reported. Dropping the fastest and slowest quarter keeps a host stall
// out of the figure; averaging the rest uses more of the run than a
// median would. Parts hold the same ops at any speed, so a faster system
// does not shift the mix of ops in a part.
func (t timing) rate(weight func(i int) int) float64 {
	var ops []int
	for i, ran := range t.ran {
		if ran && t.done[i].Sub(t.start) <= t.busy {
			ops = append(ops, i)
		}
	}
	sort.Slice(ops, func(a, b int) bool { return t.done[ops[a]].Before(t.done[ops[b]]) })
	var rates []float64
	from := t.start
	for w := 0; w < rateParts; w++ {
		part := ops[len(ops)*w/rateParts : len(ops)*(w+1)/rateParts]
		if len(part) == 0 {
			continue
		}
		total := 0
		for _, i := range part {
			total += weight(i)
		}
		to := t.done[part[len(part)-1]]
		rates = append(rates, float64(total)/to.Sub(from).Seconds())
		from = to
	}
	return midMean(rates)
}

// midMean is the mean of the middle half of xs: the interquartile mean.
func midMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q := len(s) / 4; q > 0 {
		s = s[q : len(s)-q]
	}
	return mean(s)
}

// heapSampler samples the Go heap (objects, live and not yet swept) every
// 5 ms while the measured phases run.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MiB
}

const heapMetric = "/memory/classes/heap/objects:bytes"

// startHeapSampler collects the set-up's garbage first, so every run
// starts measuring from its live heap.
func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.samples = append(h.samples, float64(sample[0].Value.Uint64())/(1<<20))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the heap's peak, taken as the
// 99th percentile of the samples: the highest level the heap holds for
// more than an instant, which a single GC landing late does not move.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	return quantile(h.samples, 0.99)
}

// memDelta is the Go runtime's work between two ReadMemStats calls.
type memDelta struct {
	allocMB  float64
	gcCycles float64
	pauseMS  float64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		allocMB:  float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		gcCycles: float64(after.NumGC - before.NumGC),
		pauseMS:  float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
}

// runtimeLayer reports the runtime's per-op cost of the measured phases.
func runtimeLayer(r *report, d memDelta, ops int) {
	if ops == 0 {
		return
	}
	r.layer["runtime.alloc_mb_per_op"] = d.allocMB / float64(ops)
	r.layer["runtime.gc_cycles_per_op"] = d.gcCycles / float64(ops)
	r.layer["runtime.gc_pause_ms"] = d.pauseMS
}

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// windows is how many equal parts of a phase each timed metric other than
// a closed loop's rate is computed over; the metric reported is the
// median of the parts, so a host stall (CPU
// steal on a shared machine) that lasts under a third of a phase does not
// move it.
const windows = 3

// windowMedian splits samples by their offset at into windows equal parts
// of span, applies metric to each non-empty part and returns the median.
func windowMedian(at []time.Duration, vals []float64, span time.Duration, metric func([]float64) float64) float64 {
	parts := make([][]float64, windows)
	for i, t := range at {
		w := int(int64(t) * windows / int64(span))
		w = min(max(w, 0), windows-1)
		parts[w] = append(parts[w], vals[i])
	}
	var ms []float64
	for _, p := range parts {
		if len(p) > 0 {
			ms = append(ms, metric(p))
		}
	}
	return quantile(ms, 0.5)
}

// latencyMetrics reports the median op latency, as the median over the
// phase's windows; at is each op's offset in the phase. The tail (p90,
// p99) is printed by each workload but not gated: on the shared 2-vCPU
// reference host it moved by up to 2.5x between runs of one seed.
func latencyMetrics(r *report, at []time.Duration, lat []float64, span time.Duration) {
	r.e2e["p50_ms"] = windowMedian(at, lat, span, func(p []float64) float64 { return quantile(p, 0.5) })
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianSetup builds a system reps times, tearing down all but the last
// build, and returns the last build with the median build time in
// seconds: set-up cost is measured like any other metric, not once.
func medianSetup[T any](reps int, build func() (T, error), teardown func(T)) (T, float64, error) {
	var times []float64
	var sys T
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		s, err := build()
		if err != nil {
			return sys, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < reps-1 {
			teardown(s)
		} else {
			sys = s
		}
	}
	return sys, quantile(times, 0.5), nil
}

// opKey carries a traced op's identity through the router's request
// context into its peer attempts.
type opKey struct{}

func withOp(ctx context.Context, o opRef) context.Context { return context.WithValue(ctx, opKey{}, o) }

func opFrom(ctx context.Context) (opRef, bool) {
	o, ok := ctx.Value(opKey{}).(opRef)
	return o, ok
}

// deriveSeed derives a named input seed from the workload seed.
func deriveSeed(seed int64, name string) int64 {
	return int64(simrand.New(seed).Derive(name).Intn(1<<30)) + 1
}

// tamper wraps h so that the first answer edit changes is served changed:
// the self-test's planted fault, which the oracles must count as a failure.
func tamper(h http.Handler, edit func([]byte) ([]byte, bool)) http.Handler {
	var done atomic.Bool
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if done.Load() {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if edited, ok := edit(body); ok && done.CompareAndSwap(false, true) {
			body = edited
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.Header().Del("Content-Length")
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

// replaceOnce is an edit for tamper: the first old in the body becomes new.
func replaceOnce(old, new string) func([]byte) ([]byte, bool) {
	return func(b []byte) ([]byte, bool) {
		if !bytes.Contains(b, []byte(old)) {
			return b, false
		}
		return bytes.Replace(b, []byte(old), []byte(new), 1), true
	}
}

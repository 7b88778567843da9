package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/appstore"
	"repro/internal/defense"
	"repro/internal/simrand"
	"repro/internal/staticanalysis"
	"repro/internal/vetd"
	"repro/internal/vetring"
	"repro/internal/vetstore"
)

// Vet workload inputs: a corpus of distinct apps larger than the ring's
// total verdict-cache capacity (3 peers × vetd's default 8192 entries),
// requested with Zipf popularity at vetload's default skew, so both hits
// and misses occur throughout.
const (
	vetCorpus = 40000
	vetZipfS  = 1.1
	// vetOffered is the open loop's rate in requests per second, about a
	// seventh of the parent commit's closed-loop capacity.
	vetOffered = 1000.0
	// vetCap is the parent commit's closed-loop capacity, in requests per
	// second, that sizes the closed loop's fixed request count.
	vetCap = 8500.0
	// vetOpen is the open loop's share of the measured time. Its median
	// latency is steady on a few thousand requests, while the closed loop's
	// rate moves with the speed the shared host gives both vCPUs at once,
	// so the closed loop gets most of the time.
	vetOpen = 0.15
)

// vetCorpusApps holds the corpus as request bodies; the IR is re-decoded
// from them only for the reference verdicts.
type vetCorpusApps struct {
	bodies [][]byte
}

func makeVetCorpus(seed int64) (*vetCorpusApps, error) {
	c := &vetCorpusApps{bodies: make([][]byte, 0, vetCorpus)}
	const chunk = 5000
	for start := 0; start < vetCorpus; start += chunk {
		apks, err := appstore.GenerateApps(seed, start, chunk)
		if err != nil {
			return nil, err
		}
		for _, apk := range apks {
			body, err := json.Marshal(vetd.VetRequest{App: apk.IR})
			if err != nil {
				return nil, err
			}
			c.bodies = append(c.bodies, body)
		}
	}
	return c, nil
}

// zipfPicker draws corpus indices: rank r has weight r^-s, and ranks map
// onto the corpus through a seeded permutation (vetload's sampler).
type zipfPicker struct {
	cdf  []float64
	perm []int
}

func newZipf(s float64, n int, rng *simrand.Source) *zipfPicker {
	z := &zipfPicker{cdf: make([]float64, n), perm: rng.Perm(n)}
	total := 0.0
	for r := 1; r <= n; r++ {
		total += math.Pow(float64(r), -s)
		z.cdf[r-1] = total
	}
	for i := range z.cdf {
		z.cdf[i] /= total
	}
	return z
}

func (z *zipfPicker) pick(rng *simrand.Source) int {
	i := sort.SearchFloat64s(z.cdf, rng.Float64())
	if i >= len(z.perm) {
		i = len(z.perm) - 1
	}
	return z.perm[i]
}

// vetRing is the system under test: three vetd peers, each with its own
// verdict store, behind a vetring router, all on loopback HTTP.
type vetRing struct {
	corpus *vetCorpusApps
	stores []*vetstore.Store
	peers  []*vetd.Server
	nodes  []*node
	router *vetring.Router
	front  *node
}

func buildVetRing(cfg runConfig, tr *tracer, build int) (*vetRing, error) {
	sys := &vetRing{}
	var err error
	if sys.corpus, err = makeVetCorpus(deriveSeed(cfg.seed, "perfbench/vet/corpus")); err != nil {
		return nil, err
	}
	var names peerNames
	for i := 0; i < 3; i++ {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("vet-build%d-peer%d", build, i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			sys.close()
			return nil, err
		}
		store, err := vetstore.Open(filepath.Join(dir, "verdicts.store"))
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.stores = append(sys.stores, store)
		// vetd's flag defaults.
		srv := vetd.New(vetd.Config{
			CacheCapacity: 8192,
			CacheShards:   16,
			QueueDepth:    256,
			Deadline:      2 * time.Second,
			MaxBatch:      256,
			Tier:          staticanalysis.Tier0,
			Store:         store,
		})
		sys.peers = append(sys.peers, srv)
		var h http.Handler = srv
		if tr != nil {
			h = tr.handler("peer", srv)
		}
		n, err := listen(h)
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.nodes = append(sys.nodes, n)
		names.add(fmt.Sprintf("vetd-%d:8474", i), n.addr)
	}
	// vetrouter's flag defaults.
	rcfg := vetring.Config{
		Peers:               names.peers,
		Replicas:            2,
		VNodes:              64,
		Tier:                staticanalysis.Tier0,
		Deadline:            2 * time.Second,
		Retries:             1,
		ProbeInterval:       250 * time.Millisecond,
		FallbackConcurrency: 4,
		Seed:                1,
		Transport:           names.transport(tr),
	}
	if sys.router, err = vetring.New(rcfg); err != nil {
		sys.close()
		return nil, err
	}
	var h http.Handler = sys.router
	if tr != nil {
		h = tr.handler("router", sys.router)
	}
	if cfg.fault == "verdict" {
		h = tamper(h, func(b []byte) ([]byte, bool) {
			if bytes.Contains(b, []byte(`"allow":true`)) {
				return bytes.Replace(b, []byte(`"allow":true`), []byte(`"allow":false`), 1), true
			}
			return bytes.Replace(b, []byte(`"allow":false`), []byte(`"allow":true`), 1), bytes.Contains(b, []byte(`"allow":false`))
		})
	}
	if sys.front, err = listen(h); err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

func (s *vetRing) close() {
	if s.front != nil {
		s.front.kill()
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, n := range s.nodes {
		n.kill()
	}
	for _, p := range s.peers {
		p.Close()
	}
	for _, st := range s.stores {
		st.Close()
	}
}

// vetAnswer is what the load generator saw for one request.
type vetAnswer struct {
	status   int
	mismatch bool   // the verdict core differs from the reference
	err      string // the error, or the mismatching core
}

func runVet(cfg runConfig) (*report, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	build := 0
	sys, setup, err := medianSetup(5, func() (*vetRing, error) {
		build++
		return buildVetRing(cfg, tr, build)
	}, func(s *vetRing) { s.close() })
	if err != nil {
		return nil, err
	}
	defer sys.close()
	r := newReport()
	r.e2e["setup_s"] = setup

	// Each phase draws its own request sequence.
	rng := simrand.New(deriveSeed(cfg.seed, "perfbench/vet/requests"))
	zipf := newZipf(vetZipfS, vetCorpus, rng.Derive("perm"))
	type phase struct {
		name   string
		reqs   []int // corpus index per request
		sched  schedule
		timing timing
		ans    []vetAnswer
	}
	shares := []struct {
		name string
		rate float64
	}{{"open", vetOffered}, {"closed", vetCap}}
	var phases []*phase
	for pi, sh := range shares {
		ph := &phase{name: sh.name}
		n := int(sh.rate * phaseLen(cfg, vetOpen, pi).Seconds())
		prng := rng.Derive(sh.name)
		ph.reqs = make([]int, n)
		ph.sched.queues = make([][]int, cfg.nproc)
		for i := range ph.reqs {
			ph.reqs[i] = zipf.pick(prng)
			ph.sched.queues[i%cfg.nproc] = append(ph.sched.queues[i%cfg.nproc], i)
		}
		if pi == 0 {
			ph.sched.due = make([]time.Duration, n)
			for i := range ph.sched.due {
				ph.sched.due[i] = time.Duration(float64(i) / sh.rate * float64(time.Second))
			}
		}
		phases = append(phases, ph)
	}

	// Reference verdicts for every app the phases will request, by a
	// direct defense.VetTier call.
	want := map[int][]byte{}
	var hashUS, analysisMS []float64
	for _, ph := range phases {
		for _, app := range ph.reqs {
			if _, ok := want[app]; ok {
				continue
			}
			var req vetd.VetRequest
			if err := json.Unmarshal(sys.corpus.bodies[app], &req); err != nil {
				return nil, err
			}
			start := time.Now()
			hash, err := vetd.HashIR(req.App)
			if err != nil {
				return nil, err
			}
			mid := time.Now()
			v, err := defense.VetTier(req.App, staticanalysis.Tier0)
			if err != nil {
				return nil, err
			}
			end := time.Now()
			hashUS = append(hashUS, us(mid.Sub(start)))
			analysisMS = append(analysisMS, ms(end.Sub(mid)))
			if want[app], err = vetd.NewVerdict(v, hash, false).Core(); err != nil {
				return nil, err
			}
		}
	}

	client := newClient(cfg.nproc)
	defer closeClient(client)
	base := "http://" + sys.front.addr
	ctx := context.Background()
	mem := readMem()
	heap := startHeapSampler()
	for pi, ph := range phases {
		ph.ans = make([]vetAnswer, len(ph.reqs))
		ph.timing = drive(ph.sched, len(ph.reqs), phaseCap(cfg, vetOpen, pi), func(i int) {
			app := ph.reqs[i]
			ph.ans[i] = postVet(ctx, client, base, tr, fmt.Sprintf("%s/%d", ph.name, i), sys.corpus.bodies[app], want[app])
		})
	}
	r.e2e["heap_peak_mb"] = heap.peakMB()
	memd := memSince(mem)

	var open, lag []float64
	var openAt []time.Duration
	ops := 0
	for _, ph := range phases {
		for i, app := range ph.reqs {
			if !ph.timing.ran[i] {
				continue
			}
			ops++
			r.attempted++
			a := ph.ans[i]
			switch {
			case a.status != http.StatusOK:
				r.fail("%s request %d: status %d %s", ph.name, i, a.status, a.err)
				continue
			case a.mismatch:
				r.fail("%s request %d: verdict %s, reference %s", ph.name, i, a.err, want[app])
			}
			if ph.name == "open" {
				due := ph.timing.start.Add(ph.sched.due[i])
				openAt = append(openAt, ph.sched.due[i])
				open = append(open, ms(ph.timing.done[i].Sub(due)))
				lag = append(lag, ms(ph.timing.sent[i].Sub(due)))
			}
		}
	}
	m := sys.router.Metrics()
	if got, want := m.Replicated.Load()+m.Degraded.Load()+m.Sheds.Load()+m.Failed.Load(), m.Requests.Load(); got != want {
		r.attempted++
		r.fail("router accounting: replicated+degraded+sheds+failed = %d, requests = %d", got, want)
	}
	var hits, reqs, storeHits, analyses uint64
	for _, p := range sys.peers {
		pm := p.Metrics()
		hits += pm.Hits.Load()
		reqs += pm.Requests.Load()
		storeHits += pm.StoreHits.Load()
		analyses += pm.Analyses.Load()
	}

	closed := phases[1]
	r.e2e["throughput_per_s"] = closed.timing.rate(func(i int) int {
		if closed.ans[i].status != http.StatusOK {
			return 0
		}
		return 1
	})
	latencyMetrics(r, openAt, open, phaseLen(cfg, vetOpen, 0))
	r.printf("corpus: %d distinct apps, zipf s=%.1f; %d distinct requested (seed %d)", vetCorpus, vetZipfS, len(want), cfg.seed)
	r.printf("open loop: offered %.0f requests/s for %.1f s", vetOffered, phaseLen(cfg, vetOpen, 0).Seconds())
	r.printf("vet_requests_per_s %.1f req/s (closed loop, %d clients, %d requests, %.2f s with every client busy)",
		r.e2e["throughput_per_s"], cfg.nproc, len(closed.reqs), closed.timing.busy.Seconds())
	r.printf("vet_p50_ms %.3f ms, vet_p90_ms %.3f ms, vet_p99_ms %.3f ms (open loop, %d requests, %d beyond p99)",
		quantile(open, 0.5), quantile(open, 0.9), quantile(open, 0.99), len(open), len(open)/100)
	r.printf("peers: requests=%d hits=%d (store hits %d) analyses=%d hit_ratio=%.4f", reqs, hits, storeHits, analyses, float64(hits)/float64(reqs))
	r.printf("router: requests=%d replicated=%d degraded=%d sheds=%d failed=%d failovers=%d retries=%d",
		m.Requests.Load(), m.Replicated.Load(), m.Degraded.Load(), m.Sheds.Load(), m.Failed.Load(), m.Failovers.Load(), m.Retries.Load())

	if tr != nil {
		runtimeLayer(r, memd, ops)
		r.layer["loadgen.lag_ms"] = quantile(lag, 0.99)
		r.layer["vetd.hash_us"] = mean(hashUS)
		r.layer["vetd.analysis_ms"] = quantile(analysisMS, 0.5)
		r.layer["vetd.hit_ratio"] = float64(hits) / float64(reqs)
		r.layer["vetring.failovers_per_req"] = float64(m.Failovers.Load()) / float64(m.Requests.Load())
		put, err := vetPutCost(cfg, sys.corpus, want)
		if err != nil {
			return nil, err
		}
		r.layer["vetstore.put_ms"] = put
		r.spans = tr.all()
		ix := indexSpans(r.spans)
		ringLayer(r, ix, "vetring", "req")
		r.layer["vetd.server_us_per_req"] = ix.meanSelfUS("peer")
	}
	return r, nil
}

// postVet sends one vet request to the ring and compares the verdict's
// core bytes with the reference.
func postVet(ctx context.Context, client *http.Client, base string, tr *tracer, op string, body, want []byte) vetAnswer {
	req, err := http.NewRequestWithContext(ctx, "POST", base+"/v1/vet", bytes.NewReader(body))
	if err != nil {
		return vetAnswer{err: err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")
	var sp span
	if tr != nil {
		sp = span{ID: tr.id(), Op: op, Name: "client", Start: tr.now()}
		req.Header.Set(hdrOp, op)
		req.Header.Set(hdrParent, strconv.FormatInt(sp.ID, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		return vetAnswer{err: err.Error()}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if tr != nil {
		sp.End = tr.now()
		tr.add(sp)
	}
	if err != nil {
		return vetAnswer{err: err.Error()}
	}
	if resp.StatusCode != http.StatusOK {
		return vetAnswer{status: resp.StatusCode, err: string(bytes.TrimSpace(raw))}
	}
	var v vetd.Verdict
	if err := json.Unmarshal(raw, &v); err != nil {
		return vetAnswer{err: err.Error()}
	}
	core, err := v.Core()
	if err != nil {
		return vetAnswer{err: err.Error()}
	}
	if !bytes.Equal(core, want) {
		return vetAnswer{status: http.StatusOK, mismatch: true, err: string(core)}
	}
	return vetAnswer{status: http.StatusOK}
}

// vetPutCost is the median vetstore.Store.Put time, in milliseconds, of
// the workload's verdicts appended to a scratch store (at most 2000).
func vetPutCost(cfg runConfig, corpus *vetCorpusApps, want map[int][]byte) (float64, error) {
	store, err := vetstore.Open(filepath.Join(cfg.dir, "vetstore-put.store"))
	if err != nil {
		return 0, err
	}
	defer store.Close()
	apps := make([]int, 0, len(want))
	for app := range want {
		apps = append(apps, app)
	}
	sort.Ints(apps)
	if len(apps) > 2000 {
		apps = apps[:2000]
	}
	var puts []float64
	for _, app := range apps {
		var req vetd.VetRequest
		if err := json.Unmarshal(corpus.bodies[app], &req); err != nil {
			return 0, err
		}
		hash, err := vetd.HashIR(req.App)
		if err != nil {
			return 0, err
		}
		v, err := defense.VetTier(req.App, staticanalysis.Tier0)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := store.Put(vetd.VerdictKey(hash, staticanalysis.Tier0), v); err != nil {
			return 0, err
		}
		puts = append(puts, ms(time.Since(start)))
	}
	return quantile(puts, 0.5), nil
}

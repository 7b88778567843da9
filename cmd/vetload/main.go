// Command vetload is the deterministic load generator and benchmark
// client for vetd. It replays a seeded synthetic install workload drawn
// from the appstore corpus (the same generator the §VI market study
// scans, so the malicious fraction matches the paper's rates), with a
// Zipf-skewed duplicate distribution — a handful of popular APKs
// dominate install traffic, which is exactly what makes the
// content-addressed verdict cache pay — and reports throughput, client
// -observed latency percentiles, cache hit rate and shed rate.
//
// With -check, every 200 verdict is compared byte-for-byte (on the
// deadline- and transport-independent Verdict core) against a direct
// in-process defense.Vet of the same IR, proving the serving layer —
// cache, coalescing, batching — never changes a verdict. The run exits
// nonzero on any mismatch. -tier must match the server's -tier: the
// verdict core includes the tier, so a mismatch fails loudly instead of
// silently comparing different analyses.
//
// A 429 shed is honored, not hammered: the client sleeps out the
// server's Retry-After hint (capped, with seeded jitter) and re-sends up
// to -retry429 times before abandoning; retried-vs-abandoned counts are
// reported.
//
// Ring mode (-ring N) turns vetload into the chaos harness for the
// distributed serving plane: it spawns N vetd peers (each with its own
// crash-safe store under -store-dir) plus a vetrouter on ephemeral
// ports (internal/load), replays the corpus against the router
// while -chaos SIGKILLs and restarts seeded-chosen peers mid-run, and
// requires a clean SIGINT shutdown from every process. -check works
// unchanged — replicated,
// degraded and recovered-from-store verdicts must all match the direct
// analysis byte-for-byte.
//
// Usage:
//
//	vetload -addr http://127.0.0.1:8474 -n 10000 -check
//	vetload -addr http://127.0.0.1:8474 -duration 10s -clients 32 -qps 500
//	vetload -addr http://127.0.0.1:8474 -n 10000 -tier 2 -check
//	vetload -ring 3 -vetd-bin ./vetd -router-bin ./vetrouter -duration 2s -chaos 600ms -check
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/appstore"
	"repro/internal/defense"
	"repro/internal/load"
	"repro/internal/simrand"
	"repro/internal/staticanalysis"
	"repro/internal/vetd"
	"repro/internal/vetring"
)

func main() {
	os.Exit(run())
}

type config struct {
	addr       string
	seed       int64
	n          int
	duration   time.Duration
	clients    int
	distinct   int
	zipfS      float64
	qps        float64
	batch      int
	deadlineMS int
	check      bool
	retry429   int
	tier       staticanalysis.Tier

	// Ring mode.
	ring      int
	vetdBin   string
	routerBin string
	storeDir  string
	replicas  int
	chaos     time.Duration
	netFaults string
}

// target is one corpus app, pre-encoded and (under -check) pre-vetted.
type target struct {
	pkg      string
	body     []byte // marshaled VetRequest
	app      json.RawMessage
	wantCore []byte // expected Verdict.Core bytes, nil unless -check
}

// sample aggregates one client's observations: the shared outcome
// counts plus the verdict-specific ones.
type sample struct {
	load.Counts
	latencies  []time.Duration
	expired    int
	other      int
	hits       int
	degraded   int
	denies     int
	mismatches int
}

func run() int {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "http://127.0.0.1:8474", "vetd base URL")
	flag.Int64Var(&cfg.seed, "seed", 42, "workload seed (corpus content and request order)")
	flag.IntVar(&cfg.n, "n", 10000, "total requests to send (ignored when -duration is set)")
	flag.DurationVar(&cfg.duration, "duration", 0, "run for a wall-clock duration instead of a fixed count")
	flag.IntVar(&cfg.clients, "clients", 8, "concurrent client connections")
	flag.IntVar(&cfg.distinct, "distinct", 512, "distinct apps in the replayed corpus")
	flag.Float64Var(&cfg.zipfS, "zipf", 1.1, "Zipf skew exponent for app popularity (0 = uniform)")
	flag.Float64Var(&cfg.qps, "qps", 0, "aggregate request rate target (0 = unlimited)")
	flag.IntVar(&cfg.batch, "batch", 1, "apps per request; >1 uses POST /v1/vet/batch")
	flag.IntVar(&cfg.deadlineMS, "deadline-ms", 0, "per-request deadline_ms hint (0 = server default)")
	flag.BoolVar(&cfg.check, "check", false, "verify every served verdict byte-identical to direct defense.Vet")
	flag.IntVar(&cfg.retry429, "retry429", 1, "retries per request after a 429, honoring Retry-After (capped, jittered)")
	tierArg := flag.String("tier", "0", "static precision tier the server runs at (must match vetd -tier)")
	flag.IntVar(&cfg.ring, "ring", 0, "spawn a ring of N vetd peers + vetrouter and load the router (0 = load -addr directly)")
	flag.StringVar(&cfg.vetdBin, "vetd-bin", "", "vetd binary for -ring mode")
	flag.StringVar(&cfg.routerBin, "router-bin", "", "vetrouter binary for -ring mode")
	flag.StringVar(&cfg.storeDir, "store-dir", "", "root directory for per-peer verdict stores in -ring mode (default: a temp dir)")
	flag.IntVar(&cfg.replicas, "replicas", 2, "replica set size in -ring mode")
	flag.DurationVar(&cfg.chaos, "chaos", 0, "mean interval between peer SIGKILL/restart cycles in -ring mode (0 disables)")
	flag.StringVar(&cfg.netFaults, "net-faults", "none", "network fault profile the router injects in -ring mode")
	flag.Parse()
	tier, err := staticanalysis.ParseTier(*tierArg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vetload: %v\n", err)
		return 2
	}
	cfg.tier = tier
	if cfg.clients < 1 || cfg.distinct < 1 || cfg.batch < 1 {
		fmt.Fprintln(os.Stderr, "vetload: -clients, -distinct and -batch must be >= 1")
		return 2
	}

	if cfg.ring > 0 && (cfg.vetdBin == "" || cfg.routerBin == "") {
		fmt.Fprintln(os.Stderr, "vetload: -ring requires -vetd-bin and -router-bin")
		return 2
	}

	targets, corpusDenies, err := buildCorpus(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vetload: corpus: %v\n", err)
		return 1
	}
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: cfg.clients},
		Timeout:   30 * time.Second,
	}
	if cfg.ring == 0 {
		samples, elapsed := replayCorpus(cfg, client, targets, corpusDenies)
		return report(cfg, samples, elapsed, client)
	}

	tierNum, seed := strconv.Itoa(int(cfg.tier)), strconv.FormatInt(cfg.seed, 10)
	var samples []sample
	var elapsed time.Duration
	code, err := load.Run(load.Config{
		Tool:       "vetload",
		Seed:       cfg.seed,
		Peers:      cfg.ring,
		StoreDir:   cfg.storeDir,
		PeerBin:    cfg.vetdBin,
		PeerName:   "vetd",
		PeerArgs:   []string{"-tier", tierNum},
		RouterBin:  cfg.routerBin,
		RouterName: "vetrouter",
		RouterArgs: []string{"-replicas", strconv.Itoa(cfg.replicas), "-tier", tierNum,
			"-net-faults", cfg.netFaults, "-net-seed", seed, "-seed", seed},
	}, cfg.chaos, -1, func(base string) {
		cfg.addr = base
		fmt.Printf("vetload: ring of %d peers up behind %s (chaos %v, faults %s)\n",
			cfg.ring, base, cfg.chaos, cfg.netFaults)
		samples, elapsed = replayCorpus(cfg, client, targets, corpusDenies)
	}, func(h *load.Harness, _ string) int {
		code := report(cfg, samples, elapsed, client)
		fmt.Printf("vetload: chaos: %d peer kill/restart cycles\n", h.Kills())
		return code
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "vetload: ring: %v\n", err)
		return 1
	}
	fmt.Println("vetload: ring shut down cleanly")
	return code
}

// replayCorpus announces the corpus, runs cfg.clients clients against
// cfg.addr and returns their samples and the wall time they took.
func replayCorpus(cfg config, client *http.Client, targets []target, denies int) ([]sample, time.Duration) {
	fmt.Printf("vetload: corpus %d distinct apps, %d denied by direct policy (%.1f%%), zipf s=%.2f\n",
		len(targets), denies, 100*float64(denies)/float64(len(targets)), cfg.zipfS)
	picker := newZipf(cfg.zipfS, cfg.distinct, simrand.New(cfg.seed).Derive("vetload/perm"))
	var sent atomic.Int64
	stopAt := time.Time{}
	if cfg.duration > 0 {
		stopAt = time.Now().Add(cfg.duration)
	}
	samples := make([]sample, cfg.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runClient(cfg, c, client, targets, picker, &sent, stopAt, &samples[c])
		}(c)
	}
	wg.Wait()
	return samples, time.Since(start)
}

// buildCorpus generates the seeded corpus slice and pre-encodes request
// bodies; under -check it also computes each app's expected verdict core.
func buildCorpus(cfg config) ([]target, int, error) {
	apks, err := appstore.GenerateApps(cfg.seed, 0, cfg.distinct)
	if err != nil {
		return nil, 0, err
	}
	targets := make([]target, len(apks))
	denies := 0
	for i, apk := range apks {
		raw, err := json.Marshal(apk.IR)
		if err != nil {
			return nil, 0, err
		}
		body, err := json.Marshal(vetd.VetRequest{App: apk.IR})
		if err != nil {
			return nil, 0, err
		}
		targets[i] = target{pkg: apk.Package, body: body, app: raw}
		v, err := defense.VetTier(apk.IR, cfg.tier)
		if err != nil {
			return nil, 0, fmt.Errorf("direct vet of %s: %w", apk.Package, err)
		}
		if !v.Allow {
			denies++
		}
		if cfg.check {
			hash, err := vetd.HashIR(apk.IR)
			if err != nil {
				return nil, 0, err
			}
			core, err := vetd.NewVerdict(v, hash, false).Core()
			if err != nil {
				return nil, 0, err
			}
			targets[i].wantCore = core
		}
	}
	return targets, denies, nil
}

// zipf is a precomputed rank-frequency sampler: rank r (1-based) has
// weight r^-s, and ranks map onto corpus indices through a seeded
// permutation so the hot set is not simply the first generated apps.
type zipf struct {
	cdf  []float64
	perm []int
}

func newZipf(s float64, n int, rng *simrand.Source) *zipf {
	z := &zipf{cdf: make([]float64, n), perm: rng.Perm(n)}
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

func (z *zipf) pick(rng *simrand.Source) int {
	u := rng.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.perm) {
		i = len(z.perm) - 1
	}
	return z.perm[i]
}

func runClient(cfg config, id int, client *http.Client, targets []target, picker *zipf, sent *atomic.Int64, stopAt time.Time, out *sample) {
	rng := simrand.New(cfg.seed).DeriveIndexed("vetload/client", id)
	var interval time.Duration
	if cfg.qps > 0 {
		interval = time.Duration(float64(cfg.clients) / cfg.qps * float64(time.Second))
	}
	next := time.Now()
	for {
		if stopAt.IsZero() {
			if sent.Add(int64(cfg.batch)) > int64(cfg.n) {
				return
			}
		} else if time.Now().After(stopAt) {
			return
		}
		if interval > 0 {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			next = next.Add(interval)
		}
		if cfg.batch > 1 {
			doBatch(cfg, client, targets, picker, rng, out)
		} else {
			doVet(cfg, client, &targets[picker.pick(rng)], rng, out)
		}
	}
}

func urlSuffix(cfg config) string {
	if cfg.deadlineMS > 0 {
		return fmt.Sprintf("?deadline_ms=%d", cfg.deadlineMS)
	}
	return ""
}

func doVet(cfg config, client *http.Client, tg *target, rng *simrand.Source, out *sample) {
	start := time.Now()
	status, body, err := load.Post(client, cfg.addr+"/v1/vet"+urlSuffix(cfg), "application/json", tg.body, 1, cfg.retry429, rng, &out.Counts)
	if err != nil {
		return
	}
	// One logical request, classified once; the latency includes any
	// Retry-After waits (the client-observed truth under shedding).
	out.latencies = append(out.latencies, time.Since(start))
	classify(status, out)
	if status == http.StatusOK {
		checkVerdict(cfg, tg, body, out)
	}
}

func doBatch(cfg config, client *http.Client, targets []target, picker *zipf, rng *simrand.Source, out *sample) {
	picks := make([]int, cfg.batch)
	apps := make([]json.RawMessage, cfg.batch)
	for i := range picks {
		picks[i] = picker.pick(rng)
		apps[i] = targets[picks[i]].app
	}
	body, _ := json.Marshal(map[string]any{"apps": apps})
	start := time.Now()
	status, raw, err := load.Post(client, cfg.addr+"/v1/vet/batch"+urlSuffix(cfg), "application/json", body, cfg.batch, cfg.retry429, rng, &out.Counts)
	if err != nil {
		return
	}
	out.latencies = append(out.latencies, time.Since(start))
	if status != http.StatusOK {
		if status == http.StatusTooManyRequests {
			out.Shed += cfg.batch
		} else {
			out.other += cfg.batch
		}
		return
	}
	var br vetd.BatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		out.Fail(cfg.batch, err)
		return
	}
	if len(br.Verdicts) != cfg.batch {
		out.Fail(cfg.batch, fmt.Errorf("batch of %d answered with %d verdicts", cfg.batch, len(br.Verdicts)))
		return
	}
	for i, item := range br.Verdicts {
		classify(item.Status, out)
		if item.Status == http.StatusOK && item.Verdict != nil {
			vb, _ := json.Marshal(item.Verdict)
			checkVerdict(cfg, &targets[picks[i]], vb, out)
		}
	}
}

func classify(status int, out *sample) {
	switch status {
	case http.StatusOK:
		out.OK++
	case http.StatusTooManyRequests:
		out.Shed++
	case http.StatusGatewayTimeout:
		out.expired++
	default:
		out.other++
	}
}

func checkVerdict(cfg config, tg *target, body []byte, out *sample) {
	var v vetd.Verdict
	if err := json.Unmarshal(body, &v); err != nil {
		out.Fail(1, err)
		return
	}
	if v.Cached {
		out.hits++
	}
	if v.Degraded {
		out.degraded++
	}
	if !v.Allow {
		out.denies++
	}
	if cfg.check {
		core, err := v.Core()
		if err != nil || !bytes.Equal(core, tg.wantCore) {
			out.mismatches++
			if out.mismatches <= 3 {
				fmt.Fprintf(os.Stderr, "vetload: MISMATCH %s:\n  got  %s\n  want %s\n", tg.pkg, core, tg.wantCore)
			}
		}
	}
}

func report(cfg config, samples []sample, elapsed time.Duration, client *http.Client) int {
	var all sample
	for _, s := range samples {
		all.Merge(s.Counts)
		all.latencies = append(all.latencies, s.latencies...)
		all.expired += s.expired
		all.other += s.other
		all.hits += s.hits
		all.degraded += s.degraded
		all.denies += s.denies
		all.mismatches += s.mismatches
	}
	total := all.OK + all.Shed + all.expired + all.other
	sort.Slice(all.latencies, func(i, j int) bool { return all.latencies[i] < all.latencies[j] })
	pct := func(p float64) time.Duration {
		if len(all.latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(all.latencies)))
		if i >= len(all.latencies) {
			i = len(all.latencies) - 1
		}
		return all.latencies[i]
	}

	fmt.Printf("vetload: %d requests in %v (%.0f req/s), %d transport errors\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds(), all.Errors)
	fmt.Printf("vetload: 200 ok %d, 429 shed %d, 504 expired %d, other %d\n",
		all.OK, all.Shed, all.expired, all.other)
	if all.OK > 0 {
		fmt.Printf("vetload: cache hit rate %.1f%% (client-observed), deny rate %.1f%%\n",
			100*float64(all.hits)/float64(all.OK), 100*float64(all.denies)/float64(all.OK))
	}
	if all.degraded > 0 {
		fmt.Printf("vetload: degraded verdicts %d (%.1f%% of 200s) — ring fell back to local analysis\n",
			all.degraded, 100*float64(all.degraded)/float64(all.OK))
	}
	if total > 0 {
		fmt.Printf("vetload: shed rate %.1f%%\n", 100*float64(all.Shed)/float64(total))
	}
	if all.Retried+all.Abandoned > 0 {
		fmt.Printf("vetload: %s\n", all.Backoff(cfg.retry429))
	}
	fmt.Printf("vetload: latency p50 %v  p90 %v  p99 %v  max %v\n",
		pct(0.50), pct(0.90), pct(0.99), pct(1))

	if code := checkServerStats(cfg, client); code != 0 {
		return code
	}

	if cfg.check {
		fmt.Printf("vetload: check mode: %d mismatches across %d served verdicts\n", all.mismatches, all.OK)
		if all.mismatches > 0 {
			return 1
		}
	}
	if all.Errors > 0 {
		return 1
	}
	return 0
}

// checkServerStats fetches /stats and enforces the exclusive accounting
// invariant of whichever service answers: hits+misses+sheds == requests
// for a vetd node, replicated+degraded+sheds+failed == requests for the
// ring router. The "service" field discriminates; an unreachable or
// undecodable /stats is reported but not fatal (the server may already
// be shutting down).
func checkServerStats(cfg config, client *http.Client) int {
	var probe struct {
		Service string `json:"service"`
	}
	raw, err := load.Get(client, cfg.addr+"/stats", &probe)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vetload: stats unavailable: %v\n", err)
		return 0
	}
	switch probe.Service {
	case "vetrouter":
		var st vetring.Stats
		if json.Unmarshal(raw, &st) != nil {
			return 0
		}
		fmt.Printf("vetload: router stats: requests=%d replicated=%d degraded=%d sheds=%d failed=%d retries=%d failovers=%d peer_errors=%d\n",
			st.Requests, st.Replicated, st.Degraded, st.Sheds, st.Failed, st.Retries, st.Failovers, st.PeerErrs)
		for _, p := range st.Peers {
			fmt.Printf("vetload:   peer %s: served=%d errors=%d breaker=%s (opened %dx)\n",
				p.Name, p.Served, p.Errors, p.Breaker, p.Opens)
		}
		if st.Replicated+st.Degraded+st.Sheds+st.Failed != st.Requests {
			fmt.Fprintf(os.Stderr, "vetload: ROUTER ACCOUNTING BROKEN: replicated+degraded+sheds+failed != requests\n")
			return 1
		}
	default: // "vetd", or a pre-service-field server
		var st vetd.Stats
		if json.Unmarshal(raw, &st) != nil {
			return 0
		}
		fmt.Printf("vetload: server stats: requests=%d hits=%d misses=%d (coalesced=%d, store=%d) sheds=%d analyses=%d queue_depth=%d hit_rate=%.1f%%\n",
			st.Requests, st.Hits, st.Misses, st.Coalesced, st.StoreHits, st.Sheds, st.Analyses, st.QueueDepth, 100*st.HitRate)
		if st.Hits+st.Misses+st.Sheds != st.Requests {
			fmt.Fprintf(os.Stderr, "vetload: SERVER ACCOUNTING BROKEN: hits+misses+sheds != requests\n")
			return 1
		}
	}
	return 0
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/sentring"
	"repro/internal/sentry"
	"repro/internal/sentrystore"
	"repro/internal/simrand"
)

// Sentry workload inputs. Each phase replays its own labeled fleet, 2 %
// draw-and-destroy attackers and 1 % notification flooders among benign
// chatty/widget/quiet devices (sentry.GenerateFleet's mix), each device
// streaming a 5 s capture. A short capture keeps many devices in every
// phase, so the class mix, and with it the work per batch, is much the
// same from seed to seed. A device uploads what it recorded in each
// virtual second (at most 32 records, more than any class records in a
// second); a batch is due at its last record's virtual time.
const (
	sentrySpan             = 5 * time.Second
	sentryWindow           = time.Second
	sentryBatchCap         = 32
	sentryRecordsPerDevice = 6.0 // generated fleet means, for sizing
	sentryBatchesPerDevice = 2.0
)

// phaseLen is the planned wall time of a serving workload's phase: the
// share open of the measured time for the open loop (phase 0), the rest
// for the closed loop (phase 1). The closed loop replays a fixed amount of
// work sized to take about this long at the parent commit's capacity.
func phaseLen(cfg runConfig, open float64, phase int) time.Duration {
	share := [...]float64{open, 1 - open}[phase]
	return time.Duration(float64(cfg.measure) * share)
}

// phaseCap is when a closed loop stops even if work remains, so a slow
// host cannot stretch a run past its time budget; an open loop always
// sends all its ops.
func phaseCap(cfg runConfig, open float64, phase int) time.Duration {
	return phaseLen(cfg, open, phase) * 3 / 2
}

// sentryLoad is one sentry workload's traffic: the open loop's offered
// batch rate, set below the parent commit's capacity on that workload
// (about a fifth of the healthy ring's, half the peer-down ring's), the
// closed loop's capacity, in records per second, that sizes its fixed
// work, and the open loop's share of the measured time. The healthy
// ring's open loop holds thousands of batches in 40 % of the time; the
// peer-down ring's, at its low rate, needs 60 % for a steady median.
type sentryLoad struct {
	offered, closedCap, open float64
}

var sentryLoads = map[bool]sentryLoad{
	false: {offered: 1500, closedCap: 21000, open: 0.4},
	true:  {offered: 60, closedCap: 300, open: 0.6},
}

// sentrydEngine is the engine configuration of sentryd's and
// sentryrouter's flag defaults.
func sentrydEngine() sentry.Config {
	return sentry.Config{
		Shards:     8,
		Window:     3 * time.Second,
		MinCalls:   8,
		MaxSwapGap: 50 * time.Millisecond,
		MinSwaps:   4,
		NotifFlood: 30,
		RingCap:    128,
	}
}

// sentryBatch is one upload of one device.
type sentryBatch struct {
	device   string
	firstSeq uint64
	records  int
	body     []byte
	// due is the batch's last record's virtual time; in an open loop, plus
	// its device's online offset.
	due time.Duration
	// flagged is the reference engine's verdict on the device once this
	// batch is applied; flags marks the batch that first flags it.
	flagged, flags bool
	planted        bool // the device is a planted attacker or flooder
}

// sentryDevice is one device's stream as the phase replays it.
type sentryDevice struct {
	id      string
	batches []int // indices into the phase's batches, in stream order
	// flagAt is the index (into batches) of the batch after which the
	// reference flags the device, or -1; want is that detection.
	flagAt int
	want   sentry.Detection
}

// sentryPhase is one phase's inputs.
type sentryPhase struct {
	name    string
	batches []sentryBatch
	devices []sentryDevice
	records int
}

// makeSentryPhase generates a fleet for one phase, renames its devices
// with the phase tag (phases share the ring, so streams must not collide)
// and cuts the streams into batches.
//
// With open > 0 the phase is an open loop of that length, replayed in real
// time: each device comes online at a seeded offset in [-span, open), a
// batch is due at that offset plus its last record's virtual time, and
// only batches due inside [0, open) are kept, so the offered rate is
// steady over the whole phase.
func makeSentryPhase(name string, seed int64, n int, open time.Duration) (*sentryPhase, error) {
	fl, err := sentry.GenerateFleet(sentry.FleetConfig{
		Devices:      n,
		Attackers:    n * 2 / 100,
		NotifAbusers: n / 100,
		Span:         sentrySpan,
		Seed:         seed,
	})
	if err != nil {
		return nil, err
	}
	starts := simrand.New(seed).Derive("perfbench/sentry/starts")
	ph := &sentryPhase{name: name}
	for _, d := range fl.Devices {
		id := name + "-" + d.ID
		dev := sentryDevice{id: id, flagAt: -1}
		var offset time.Duration
		if open > 0 {
			offset = time.Duration(starts.Float64()*float64(open+sentrySpan)) - sentrySpan
		}
		recs := d.Records
		for len(recs) > 0 {
			k := 1
			win := recs[0].At / sentryWindow
			for k < len(recs) && k < sentryBatchCap && recs[k].At/sentryWindow == win {
				k++
			}
			chunk := recs[:k]
			recs = recs[k:]
			due := offset + chunk[k-1].At
			if open > 0 && (due < 0 || due >= open) {
				continue
			}
			chunk = append([]sentry.Record(nil), chunk...)
			for j := range chunk {
				chunk[j].Device = id
			}
			body, err := sentry.EncodeBatch(chunk)
			if err != nil {
				return nil, err
			}
			dev.batches = append(dev.batches, len(ph.batches))
			ph.batches = append(ph.batches, sentryBatch{
				device:   id,
				firstSeq: chunk[0].Seq,
				records:  k,
				body:     body,
				due:      due,
				planted:  fl.Truth[d.ID] != "",
			})
			ph.records += k
		}
		if len(dev.batches) > 0 {
			ph.devices = append(ph.devices, dev)
		}
	}
	return ph, nil
}

// reference feeds the phase through one in-process engine, the oracle for
// every ingest answer, and returns the time Engine.Ingest took.
func (ph *sentryPhase) reference() (time.Duration, error) {
	eng, err := sentry.NewEngine(sentrydEngine())
	if err != nil {
		return 0, err
	}
	var busy time.Duration
	for di := range ph.devices {
		dev := &ph.devices[di]
		for k, bi := range dev.batches {
			b := &ph.batches[bi]
			recs, err := sentry.DecodeBatch(b.body)
			if err != nil {
				return 0, err
			}
			start := time.Now()
			if _, err := eng.Ingest(b.device, recs); err != nil {
				return 0, err
			}
			busy += time.Since(start)
			b.flagged = eng.Detected(b.device)
			if b.flagged && dev.flagAt < 0 {
				b.flags = true
				dev.flagAt = k
				dev.want, _ = eng.DetectionFor(b.device)
			}
		}
	}
	return busy, nil
}

// schedule assigns devices to senders (device-affine, so a device's
// batches go out in order) and orders each sender's batches by due time.
// An open loop sends each batch at its due time.
func (ph *sentryPhase) schedule(senders int, open bool) schedule {
	s := schedule{queues: make([][]int, senders)}
	owner := make(map[string]int, len(ph.devices))
	for i, d := range ph.devices {
		owner[d.id] = i % senders
	}
	order := make([]int, len(ph.batches))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ph.batches[order[a]].due < ph.batches[order[b]].due })
	for _, i := range order {
		q := owner[ph.batches[i].device]
		s.queues[q] = append(s.queues[q], i)
	}
	if open {
		s.due = make([]time.Duration, len(ph.batches))
		for i, b := range ph.batches {
			s.due[i] = b.due
		}
	}
	return s
}

// sentryRing is the system under test: three sentryd peers, each with its
// own detection journal, behind a sentring router, all on loopback HTTP.
type sentryRing struct {
	phases []*sentryPhase
	stores []*sentrystore.Store
	peers  []*sentry.Server
	nodes  []*node
	router *sentring.Router
	front  *node
}

func buildSentryRing(cfg runConfig, tr *tracer, build int, peerDown bool, load sentryLoad) (*sentryRing, error) {
	sys := &sentryRing{}
	open := phaseLen(cfg, load.open, 0)
	// An open-loop device is online for open+span on average.
	openDevices := load.offered * (open + sentrySpan).Seconds() / sentryBatchesPerDevice
	closedDevices := load.closedCap * phaseLen(cfg, load.open, 1).Seconds() / sentryRecordsPerDevice
	for _, ph := range []struct {
		name    string
		devices float64
		open    time.Duration
	}{{"open", openDevices, open}, {"closed", closedDevices, 0}} {
		p, err := makeSentryPhase(ph.name, deriveSeed(cfg.seed, "perfbench/sentry/"+ph.name), int(ph.devices)+1, ph.open)
		if err != nil {
			return nil, err
		}
		sys.phases = append(sys.phases, p)
	}
	var names peerNames
	for i := 0; i < 3; i++ {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("sentry-build%d-peer%d", build, i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			sys.close()
			return nil, err
		}
		store, err := sentrystore.Open(filepath.Join(dir, "flags.store"))
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.stores = append(sys.stores, store)
		srv, err := sentry.NewServer(sentry.ServerConfig{Engine: sentrydEngine(), QueueDepth: 64})
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.peers = append(sys.peers, srv)
		recovered, err := store.All()
		if err != nil {
			sys.close()
			return nil, err
		}
		if err := srv.Engine().Restore(recovered); err != nil {
			sys.close()
			return nil, err
		}
		var h http.Handler = srv
		flagger := sentrystore.Flagger{S: store, Window: sentrydEngine().Window}
		if tr != nil {
			j := &tracedJournal{t: tr, inner: flagger, current: map[string]opRef{}}
			srv.Engine().SetJournal(j)
			h = tr.handler("peer", j.wrap(srv))
		} else {
			srv.Engine().SetJournal(flagger)
		}
		n, err := listen(h)
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.nodes = append(sys.nodes, n)
		names.add(fmt.Sprintf("sentryd-%d:8475", i), n.addr)
	}
	rcfg := sentring.Config{
		Peers:    names.peers,
		Replicas: 2,
		VNodes:   64,
		Engine: sentry.Config{
			Window:     3 * time.Second,
			MinCalls:   8,
			MaxSwapGap: 50 * time.Millisecond,
			MinSwaps:   4,
			NotifFlood: 30,
		},
		Deadline:            2 * time.Second,
		Retries:             1,
		ProbeInterval:       250 * time.Millisecond,
		FallbackConcurrency: 4,
		Seed:                1,
		Transport:           names.transport(tr),
	}
	router, err := sentring.New(rcfg)
	if err != nil {
		sys.close()
		return nil, err
	}
	sys.router = router
	var h http.Handler = router
	if tr != nil {
		h = tr.handler("router", router)
	}
	if cfg.fault == "detection" {
		h = tamper(h, replaceOnce(`"detected":true`, `"detected":false`))
	}
	if sys.front, err = listen(h); err != nil {
		sys.close()
		return nil, err
	}
	if peerDown {
		sys.nodes[0].kill()
	}
	return sys, nil
}

func (s *sentryRing) close() {
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

// sentryAnswer is what the load generator saw for one batch.
type sentryAnswer struct {
	status   int
	detected bool
	err      string
}

func runSentry(cfg runConfig, peerDown bool) (*report, error) {
	load := sentryLoads[peerDown]
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	build := 0
	sys, setup, err := medianSetup(3, func() (*sentryRing, error) {
		build++
		return buildSentryRing(cfg, tr, build, peerDown, load)
	}, func(s *sentryRing) { s.close() })
	if err != nil {
		return nil, err
	}
	defer sys.close()
	r := newReport()
	r.e2e["setup_s"] = setup

	var engineBusy time.Duration
	batches := 0
	for _, ph := range sys.phases {
		busy, err := ph.reference()
		if err != nil {
			return nil, fmt.Errorf("reference engine: %w", err)
		}
		engineBusy += busy
		batches += len(ph.batches)
	}

	client := newClient(cfg.nproc)
	defer closeClient(client)
	base := "http://" + sys.front.addr
	ctx := context.Background()

	m := sys.router.Metrics()
	mem := readMem()
	heap := startHeapSampler()
	var timings []timing
	var scheds []schedule
	var answers [][]sentryAnswer
	for pi, ph := range sys.phases {
		ans := make([]sentryAnswer, len(ph.batches))
		sc := ph.schedule(cfg.nproc, pi == 0)
		timings = append(timings, drive(sc, len(ph.batches), phaseCap(cfg, load.open, pi), func(i int) {
			ans[i] = postBatch(ctx, client, base, tr, &ph.batches[i])
		}))
		scheds = append(scheds, sc)
		answers = append(answers, ans)
	}
	r.e2e["heap_peak_mb"] = heap.peakMB()
	memd := memSince(mem)

	// Oracles: every answer against the reference, then the router's
	// accounting identity and the ring's final detection set.
	sent := map[string]int{} // device -> index (into its batches) of the last acked batch
	var open, lag, flagLat []float64
	var openAt []time.Duration
	for pi, ph := range sys.phases {
		t, ans := timings[pi], answers[pi]
		for di, d := range ph.devices {
			last := -1
			for k, bi := range d.batches {
				if !t.ran[bi] {
					break
				}
				b, a := &ph.batches[bi], ans[bi]
				r.attempted++
				switch {
				case a.status != http.StatusOK:
					r.fail("%s batch %s/%d: status %d %s", ph.name, b.device, b.firstSeq, a.status, a.err)
					continue
				case a.detected != b.flagged:
					r.fail("%s batch %s/%d: detected=%v, reference says %v", ph.name, b.device, b.firstSeq, a.detected, b.flagged)
				}
				last = k
				if pi == 0 {
					due := t.start.Add(scheds[0].due[bi])
					openAt = append(openAt, scheds[0].due[bi])
					open = append(open, ms(t.done[bi].Sub(due)))
					lag = append(lag, ms(t.sent[bi].Sub(due)))
					if b.flags && b.planted {
						flagLat = append(flagLat, ms(t.done[bi].Sub(due)))
					}
				}
			}
			if last >= 0 {
				sent[ph.devices[di].id] = last
			}
		}
	}
	if got, want := m.Routed.Load()+m.Degraded.Load()+m.Sheds.Load()+m.Failed.Load(), m.Batches.Load(); got != want {
		r.attempted++
		r.fail("router accounting: routed+degraded+sheds+failed = %d, batches = %d", got, want)
	}
	checkDetections(r, sys, sent)

	openPh, closedPh, openLen := sys.phases[0], sys.phases[1], phaseLen(cfg, load.open, 0)
	r.e2e["throughput_per_s"] = timings[1].rate(func(i int) int {
		if answers[1][i].status != http.StatusOK {
			return 0
		}
		return closedPh.batches[i].records
	})
	latencyMetrics(r, openAt, open, openLen)

	r.printf("fleet: %d open-loop and %d closed-loop devices; %d batches, %d records (seed %d)",
		len(openPh.devices), len(closedPh.devices), batches, openPh.records+closedPh.records, cfg.seed)
	r.printf("open loop: offered %.0f records/s (%.0f batches/s) for %.1f s",
		float64(openPh.records)/openLen.Seconds(), float64(len(openPh.batches))/openLen.Seconds(), openLen.Seconds())
	r.printf("ingest_records_per_s %.1f records/s (closed loop, %d clients, %d batches, %.2f s with every client busy)",
		r.e2e["throughput_per_s"], cfg.nproc, len(closedPh.batches), timings[1].busy.Seconds())
	r.printf("ingest_p50_ms %.3f ms, ingest_p90_ms %.3f ms, ingest_p99_ms %.3f ms (open loop, %d batches, %d beyond p99)",
		quantile(open, 0.5), quantile(open, 0.9), quantile(open, 0.99), len(open), len(open)/100)
	r.printf("flag_p50_ms %.3f ms (%d planted attackers flagged in the open loop)", quantile(flagLat, 0.5), len(flagLat))
	r.printf("router: batches=%d routed=%d degraded=%d sheds=%d failed=%d retries=%d acks=%d dup_acks=%d peer_errs=%d",
		m.Batches.Load(), m.Routed.Load(), m.Degraded.Load(), m.Sheds.Load(), m.Failed.Load(),
		m.Retries.Load(), m.Acks.Load(), m.DupAcks.Load(), m.PeerErrs.Load())

	if tr != nil {
		ops := 0
		for _, t := range timings {
			for _, ran := range t.ran {
				if ran {
					ops++
				}
			}
		}
		runtimeLayer(r, memd, ops)
		r.layer["sentry.flag_p50_ms"] = quantile(flagLat, 0.5)
		r.layer["loadgen.lag_ms"] = quantile(lag, 0.99)
		r.layer["sentry.engine_us_per_batch"] = us(engineBusy) / float64(batches)
		r.layer["sentry.decode_us_per_batch"] = decodeCost(sys.phases)
		r.layer["sentring.retries_per_batch"] = float64(m.Retries.Load()) / float64(m.Batches.Load())
		r.layer["sentring.degraded"] = float64(m.Degraded.Load())
		r.layer["sentring.sheds"] = float64(m.Sheds.Load())
		r.layer["sentring.dup_acks"] = float64(m.DupAcks.Load())
		r.spans = tr.all()
		ix := indexSpans(r.spans)
		ringLayer(r, ix, "sentring", "batch")
		r.layer["sentry.server_us_per_batch"] = ix.meanSelfUS("peer")
		var puts []float64
		for _, s := range ix.byName["store.put"] {
			puts = append(puts, float64(s.dur())/1e6)
		}
		r.layer["sentrystore.put_ms"] = quantile(puts, 0.5)
		r.layer["sentrystore.puts"] = float64(len(puts))
		engineCap := float64(openPh.records+closedPh.records) / engineBusy.Seconds()
		r.printf("engine capacity %.0f records/s (reference Engine.Ingest); routed ingest is %.1f%% of it",
			engineCap, 100*r.e2e["throughput_per_s"]/engineCap)
	}
	return r, nil
}

// postBatch sends one batch to the ring and reads the answer.
func postBatch(ctx context.Context, client *http.Client, base string, tr *tracer, b *sentryBatch) sentryAnswer {
	req, err := http.NewRequestWithContext(ctx, "POST", base+"/v1/ingest?device="+b.device, bytes.NewReader(b.body))
	if err != nil {
		return sentryAnswer{err: err.Error()}
	}
	req.Header.Set("Content-Type", "text/plain")
	var sp span
	if tr != nil {
		sp = span{ID: tr.id(), Op: b.device + "/" + strconv.FormatUint(b.firstSeq, 10), Name: "client", Start: tr.now()}
		req.Header.Set(hdrOp, sp.Op)
		req.Header.Set(hdrParent, strconv.FormatInt(sp.ID, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		return sentryAnswer{err: err.Error()}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if tr != nil {
		sp.End = tr.now()
		tr.add(sp)
	}
	a := sentryAnswer{status: resp.StatusCode}
	if err != nil {
		a.status, a.err = 0, err.Error()
		return a
	}
	if resp.StatusCode != http.StatusOK {
		a.err = string(bytes.TrimSpace(body))
		return a
	}
	var ir sentry.IngestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		a.status, a.err = 0, err.Error()
		return a
	}
	a.detected = ir.Detected
	return a
}

// checkDetections compares the ring's merged detection set with the
// reference: for every device that reported, the reference detection as of
// its last acked batch, by device, pattern and config version.
func checkDetections(r *report, sys *sentryRing, sent map[string]int) {
	snap := sys.router.MergedSnapshot(context.Background())
	got := map[string]sentry.Detection{}
	for _, d := range snap.Detections {
		got[d.Device] = d
	}
	for _, ph := range sys.phases {
		for _, d := range ph.devices {
			last, ok := sent[d.id]
			if !ok {
				continue
			}
			g, has := got[d.id]
			want := d.flagAt >= 0 && last >= d.flagAt
			r.attempted++
			switch {
			case has != want:
				r.fail("detection set: device %s flagged=%v, reference says %v", d.id, has, want)
			case want && (g.Pattern != d.want.Pattern || g.ConfigVersion != d.want.ConfigVersion):
				r.fail("detection set: device %s got (%s, v%d), reference (%s, v%d)", d.id, g.Pattern, g.ConfigVersion, d.want.Pattern, d.want.ConfigVersion)
			}
			delete(got, d.id)
		}
	}
	for id := range got {
		r.attempted++
		r.fail("detection set: device %s flagged but never acked", id)
	}
}

// decodeCost is the mean wall time of sentry.DecodeBatch over the
// workload's batches, in microseconds.
func decodeCost(phases []*sentryPhase) float64 {
	n := 0
	start := time.Now()
	for _, ph := range phases {
		for _, b := range ph.batches {
			if _, err := sentry.DecodeBatch(b.body); err == nil {
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return us(time.Since(start)) / float64(n)
}

// tracedJournal is the benchmark's sentry.Journal: it wraps sentryd's
// sentrystore.Flagger and records each append as a store.put span under
// the peer span of the batch that triggered it.
type tracedJournal struct {
	t       *tracer
	inner   sentrystore.Flagger
	mu      sync.Mutex
	current map[string]opRef // device -> the peer span ingesting it
}

// wrap remembers, per device, the peer span now ingesting its batch; it
// sits inside the peer span's handler. Senders are device-affine and the
// router sends replicas one at a time, so one device has at most one batch
// inside one peer.
func (j *tracedJournal) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		o, ok := opFrom(r.Context())
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		dev := r.URL.Query().Get("device")
		j.mu.Lock()
		j.current[dev] = o
		j.mu.Unlock()
		h.ServeHTTP(w, r)
		j.mu.Lock()
		delete(j.current, dev)
		j.mu.Unlock()
	})
}

func (j *tracedJournal) Append(d sentry.Detection) error {
	j.mu.Lock()
	o, ok := j.current[d.Device]
	j.mu.Unlock()
	start := j.t.now()
	err := j.inner.Append(d)
	if ok {
		j.t.add(span{ID: j.t.id(), Parent: o.parent, Op: o.op, Name: "store.put", Start: start, End: j.t.now()})
	}
	return err
}

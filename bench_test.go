// Benchmarks that regenerate every table and figure of the paper's
// evaluation. Each BenchmarkFigN/BenchmarkTableN runs the corresponding
// experiment end-to-end and reports the headline numbers as custom
// metrics, so `go test -bench=. -benchmem` doubles as the reproduction
// harness. Microbenchmarks at the bottom quantify the simulator's own
// costs (and the Section VII-A defense's per-transaction overhead).
package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/anim"
	"repro/internal/appstore"
	"repro/internal/binder"
	"repro/internal/defense"
	"repro/internal/device"
	"repro/internal/dexir"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/sentring"
	"repro/internal/sentry"
	"repro/internal/simclock"
	"repro/internal/simrand"
	"repro/internal/staticanalysis"
	"repro/internal/sysserver"
	"repro/internal/sysui"
	"repro/internal/vetd"
	"repro/internal/vetring"
)

const benchSeed = 42

// BenchmarkFig2 regenerates the FastOutSlowIn completeness curve.
func BenchmarkFig2(b *testing.B) {
	var at100 float64
	for i := 0; i < b.N; i++ {
		pts := experiment.Fig2()
		for _, p := range pts {
			if p.At == 100*time.Millisecond {
				at100 = p.Completeness
			}
		}
	}
	b.ReportMetric(100*at100, "%completeness@100ms")
}

// BenchmarkFig4 regenerates the toast enter/exit curves.
func BenchmarkFig4(b *testing.B) {
	var exitAt100 float64
	for i := 0; i < b.N; i++ {
		_, acc := experiment.Fig4()
		for _, p := range acc {
			if p.At == 100*time.Millisecond {
				exitAt100 = p.Completeness
			}
		}
	}
	b.ReportMetric(100*exitAt100, "%exit@100ms")
}

// runExp resolves a registered experiment and drives it end to end through
// the unified Run API — the same path cmd/animbench takes.
func runExp(b *testing.B, name string, seed int64, workers int, cfg experiment.Config) experiment.Output {
	b.Helper()
	exp, err := experiment.New(name, cfg)
	if err != nil {
		b.Fatal(err)
	}
	out, err := experiment.Run(exp, experiment.RunOpts{Seed: seed, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// BenchmarkFig6 sweeps D through the five Λ outcomes on one device.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runExp(b, "fig6", benchSeed, 1, experiment.Config{Model: "mi8"})
	}
}

// BenchmarkTableII measures the Λ1 upper bound of D on all 30 devices.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runExp(b, "table2", benchSeed, 1, experiment.Config{})
	}
}

// BenchmarkLoadImpact reruns the Section VI-B background-load experiment.
func BenchmarkLoadImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runExp(b, "load", benchSeed, 1, experiment.Config{Model: "mi8"})
	}
}

// BenchmarkFig7 runs the full 30-participant capture-rate study.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runExp(b, "fig7", benchSeed, 1, experiment.Config{})
	}
}

// BenchmarkFig8 runs the capture study grouped by Android version.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runExp(b, "fig8", benchSeed+1, 1, experiment.Config{})
	}
}

// BenchmarkTableIII runs the password-stealing study at the paper's scale
// (10 passwords per participant per length — 1500 full attack runs) and
// reports how many attack runs the fault layer skipped (zero here; the
// bench runs unfaulted).
func BenchmarkTableIII(b *testing.B) {
	var skipped int
	for i := 0; i < b.N; i++ {
		out := runExp(b, "table3", benchSeed, 1, experiment.Config{Trials: 10})
		skipped = out.Skipped
	}
	b.ReportMetric(float64(skipped), "skipped-trials")
}

// BenchmarkDegradation runs the full §VIII fault-intensity sweep at one and
// four workers. The workers=4 sub-benchmark is the scheduler's wall-clock
// acceptance check: the sweep's six sub-experiments per intensity shard
// across the pool, so it must run well under the sequential time while the
// report stays byte-identical (TestParallelDeterminism pins that part).
func BenchmarkDegradation(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runExp(b, "degradation", benchSeed, workers, experiment.Config{FaultProfile: "chaos"})
			}
		})
	}
}

// BenchmarkTableIV attacks the eight real-world apps.
func BenchmarkTableIV(b *testing.B) {
	var compromised int
	for i := 0; i < b.N; i++ {
		rows, err := experiment.TableIV(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		compromised = 0
		for _, r := range rows {
			if r.Compromised {
				compromised++
			}
		}
	}
	b.ReportMetric(float64(compromised), "apps-compromised/8")
}

// BenchmarkStealthiness runs the 30-participant survey.
func BenchmarkStealthiness(b *testing.B) {
	var noticed, lag int
	for i := 0; i < b.N; i++ {
		rep, err := experiment.Stealthiness(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		noticed, lag = rep.NoticedAbnormal, rep.ReportedLag
	}
	b.ReportMetric(float64(noticed), "noticed/30")
	b.ReportMetric(float64(lag), "lag-reports/30")
}

// BenchmarkCorpus runs the §VI-C2 study at the paper's full scale
// (890,855 synthetic apps through both scanners), sequentially.
func BenchmarkCorpus(b *testing.B) {
	var overlayA11y int
	for i := 0; i < b.N; i++ {
		rep, err := appstore.ScanRange(benchSeed, 0, appstore.PaperCorpusSize, appstore.PaperRates(), staticanalysis.Tier0)
		if err != nil {
			b.Fatal(err)
		}
		overlayA11y = rep.OverlayPlusA11y
	}
	b.ReportMetric(float64(overlayA11y), "overlay+a11y-apps")
}

// BenchmarkCorpusScan tracks the parallel scanner's throughput across PRs:
// a fixed 100k-app slice through generation, grep baseline and call-graph
// analysis, with apps/sec as the headline metric. The registered corpus
// experiment runs its chunk trials on GOMAXPROCS workers, as
// `animbench -exp corpus -workers $(nproc)` does.
func BenchmarkCorpusScan(b *testing.B) {
	const n = 100_000
	exp, err := experiment.New("corpus", experiment.Config{CorpusN: n})
	if err != nil {
		b.Fatal(err)
	}
	var precision float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := experiment.Collect(exp, experiment.RunOpts{Seed: benchSeed, Workers: runtime.GOMAXPROCS(0)})
		if err != nil {
			b.Fatal(err)
		}
		var rep appstore.Report
		for j := range results {
			rep.Merge(experiment.Res[appstore.Report](results, j))
		}
		precision = rep.StaticOverlay.Precision()
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "apps/sec")
	b.ReportMetric(100*precision, "%static-precision")
}

// BenchmarkAnalyzeTier isolates the static pass itself: one fixed
// obfuscated corpus slice (PrecisionRates, so every decoy family is
// present) pushed through AnalyzeTier at each precision tier. The
// per-tier deltas price what dead-branch pruning (tier1) and
// interprocedural constant propagation (tier2) cost per app;
// scripts/bench.sh records the result in BENCH_static.json. The
// flagged-apps metric anchors behaviour as well as speed: tier1 prunes
// flag-decoy false positives, tier2 additionally recovers reflective
// false negatives, so the three counts differ.
func BenchmarkAnalyzeTier(b *testing.B) {
	const n = 8192
	gen, err := appstore.NewGenerator(simrand.New(benchSeed), appstore.PrecisionRates())
	if err != nil {
		b.Fatal(err)
	}
	apps := make([]*dexir.App, n)
	for i := range apps {
		apps[i] = gen.Next().IR
	}
	for _, tier := range staticanalysis.Tiers() {
		tier := tier
		b.Run(tier.String(), func(b *testing.B) {
			var flagged int
			for i := 0; i < b.N; i++ {
				flagged = 0
				for _, app := range apps {
					if staticanalysis.AnalyzeTier(app, tier).DrawAndDestroy {
						flagged++
					}
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "apps/sec")
			b.ReportMetric(float64(flagged), "flagged-apps")
		})
	}
}

// BenchmarkDefenseIPC evaluates the Binder-log detector end to end.
func BenchmarkDefenseIPC(b *testing.B) {
	var latencyMS float64
	for i := 0; i < b.N; i++ {
		rep, err := experiment.DefenseIPC(benchSeed, faults.None())
		if err != nil {
			b.Fatal(err)
		}
		latencyMS = float64(rep.DetectionLatency) / float64(time.Millisecond)
	}
	b.ReportMetric(latencyMS, "detect-latency-ms")
}

// BenchmarkDefenseNotif evaluates the enhanced-notification patch.
func BenchmarkDefenseNotif(b *testing.B) {
	var with float64
	for i := 0; i < b.N; i++ {
		rep, err := experiment.DefenseNotif(benchSeed, faults.None())
		if err != nil {
			b.Fatal(err)
		}
		with = float64(rep.OutcomeWith)
	}
	b.ReportMetric(with, "outcome-with-defense(5=Λ5)")
}

// BenchmarkDefenseToastGap evaluates the toast scheduling defense.
func BenchmarkDefenseToastGap(b *testing.B) {
	var withDefense float64
	for i := 0; i < b.N; i++ {
		rep, err := experiment.DefenseToastGap(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		withDefense = rep.MinAlphaWith
	}
	b.ReportMetric(withDefense, "min-opacity-defended")
}

// BenchmarkDrawerCheck measures drawer exposure during the attack.
func BenchmarkDrawerCheck(b *testing.B) {
	var visibleBelowBound float64
	for i := 0; i < b.N; i++ {
		rep, err := experiment.DrawerCheck("mi8", benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		visibleBelowBound = rep.Rows[1].PixelsVisiblePct
	}
	b.ReportMetric(visibleBelowBound, "%pixels-visible@0.9bound")
}

// BenchmarkAblations runs the four design-choice knockouts.
func BenchmarkAblations(b *testing.B) {
	var anaShrinkMS float64
	for i := 0; i < b.N; i++ {
		rep, err := experiment.Ablations(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		anaShrinkMS = float64(rep.BoundWithANA-rep.BoundWithoutANA) / float64(time.Millisecond)
	}
	b.ReportMetric(anaShrinkMS, "ana-bound-shrink-ms")
}

// BenchmarkDetectorObserve measures the Section VII-A defense's
// per-transaction analysis cost — the "negligible overhead" claim.
func BenchmarkDetectorObserve(b *testing.B) {
	det, err := defense.NewIPCDetector()
	if err != nil {
		b.Fatal(err)
	}
	tx := binder.Transaction{
		From:   "com.some.app",
		To:     binder.SystemServer,
		Method: sysserver.MethodAddView,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Realistic overlay traffic density: a handful of calls per
		// second, so the sliding window stays small.
		tx.DeliveredAt = time.Duration(i) * 150 * time.Millisecond
		det.Observe(tx)
	}
}

// BenchmarkVetServe measures one vetting request through the full vetd
// serving stack (HTTP decode, content hash, cache or analysis pool,
// encode) in two regimes: cold — caching disabled, every request pays a
// defense.Vet call-graph analysis — and warm — every request hits the
// content-addressed verdict cache. The gap isolates the analysis cost a
// hit avoids; for the small synthetic IRs the floor under both is JSON
// decode + hashing, so the delta grows with app size while warm stays
// near the floor.
func BenchmarkVetServe(b *testing.B) {
	const distinct = 64
	apks, err := appstore.GenerateApps(benchSeed, 0, distinct)
	if err != nil {
		b.Fatal(err)
	}
	bodies := make([][]byte, distinct)
	for i, apk := range apks {
		if bodies[i], err = json.Marshal(vetd.VetRequest{App: apk.IR}); err != nil {
			b.Fatal(err)
		}
	}
	serve := func(b *testing.B, s *vetd.Server) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest("POST", "/v1/vet", bytes.NewReader(bodies[i%distinct]))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		s := vetd.New(vetd.Config{CacheCapacity: -1, QueueDepth: 1 << 16})
		defer s.Close()
		serve(b, s)
	})
	b.Run("warm", func(b *testing.B) {
		s := vetd.New(vetd.Config{QueueDepth: 1 << 16})
		defer s.Close()
		for i := range bodies { // pre-warm: one analysis per distinct app
			req := httptest.NewRequest("POST", "/v1/vet", bytes.NewReader(bodies[i]))
			s.ServeHTTP(httptest.NewRecorder(), req)
		}
		b.ResetTimer()
		serve(b, s)
		m := s.Metrics()
		b.ReportMetric(100*float64(m.Hits.Load())/float64(m.Requests.Load()), "%cache-hit")
	})
}

// BenchmarkRingServe measures one vetting request through the distributed
// serving plane: a vetring router fronting three in-process vetd peers
// over real HTTP, replicas=2. The healthy sub-benchmark is the steady
// state (every request answered by its primary replica); one-peer-down
// partitions peer 0 behind the deterministic network fault plane, so
// keys whose primary was peer 0 pay a failover to their surviving
// replica once the circuit breaker opens. The gap prices failover —
// %replicated must stay at 100 in both regimes, because with replicas=2
// every key keeps one live copy when a single peer dies.
func BenchmarkRingServe(b *testing.B) {
	const distinct = 64
	apks, err := appstore.GenerateApps(benchSeed, 0, distinct)
	if err != nil {
		b.Fatal(err)
	}
	bodies := make([][]byte, distinct)
	for i, apk := range apks {
		if bodies[i], err = json.Marshal(vetd.VetRequest{App: apk.IR}); err != nil {
			b.Fatal(err)
		}
	}
	run := func(b *testing.B, plane *faults.NetPlane) {
		b.Helper()
		var nodes []*vetd.Server
		var backends []*httptest.Server
		var peers []string
		for i := 0; i < 3; i++ {
			s := vetd.New(vetd.Config{QueueDepth: 1 << 16})
			ts := httptest.NewServer(s)
			nodes = append(nodes, s)
			backends = append(backends, ts)
			peers = append(peers, strings.TrimPrefix(ts.URL, "http://"))
		}
		defer func() {
			for i := range nodes {
				backends[i].Close()
				nodes[i].Close()
			}
		}()
		router, err := vetring.New(vetring.Config{
			Peers:           peers,
			Replicas:        2,
			Retries:         1,
			RetryBase:       time.Millisecond,
			ProbeInterval:   -1,
			BreakerCooldown: time.Hour, // stay open for the whole measured run
			NetPlane:        plane,
			Seed:            benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer router.Close()
		serveOne := func(i int) {
			req := httptest.NewRequest("POST", "/v1/vet", bytes.NewReader(bodies[i%distinct]))
			rec := httptest.NewRecorder()
			router.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
		}
		// Warm every distinct key (peer caches fill, breakers settle), then
		// measure the steady state; metrics are deltas over the measured
		// window so the warmup's failovers don't pollute them.
		for i := 0; i < distinct; i++ {
			serveOne(i)
		}
		m := router.Metrics()
		repl0, fail0 := m.Replicated.Load(), m.Failovers.Load()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveOne(i)
		}
		b.StopTimer()
		b.ReportMetric(100*float64(m.Replicated.Load()-repl0)/float64(b.N), "%replicated")
		b.ReportMetric(float64(m.Failovers.Load()-fail0)/float64(b.N), "failovers/op")
	}
	b.Run("healthy", func(b *testing.B) { run(b, nil) })
	b.Run("one-peer-down", func(b *testing.B) {
		prof := faults.NetProfile{Name: "bench-partition", PartitionPeers: []int{0}}
		run(b, faults.NewNetPlane(prof, benchSeed))
	})
}

// BenchmarkSentryIngest measures the streaming detection service's
// ingest path: one op replays a pre-encoded 256-device labeled fleet
// through the full HTTP stack (admission gate, wire decode, sharded
// window update, decision rules) of a fresh sentryd server. The server
// is rebuilt every op because device sequence numbers are strictly
// monotonic — a second replay into the same engine would be a protocol
// violation, not a measurement. records/sec is the headline throughput;
// detected-devices anchors behaviour (every planted attacker, nothing
// else) so a speedup that breaks detection cannot pass as a win.
// scripts/bench.sh records the result in BENCH_sentry.json.
func BenchmarkSentryIngest(b *testing.B) {
	fl, err := sentry.GenerateFleet(sentry.FleetConfig{
		Devices: 256, Attackers: 8, NotifAbusers: 4,
		Span: 10 * time.Second, Seed: benchSeed,
	})
	if err != nil {
		b.Fatal(err)
	}
	type batch struct {
		device string
		body   []byte
	}
	var batches []batch
	for _, d := range fl.Devices {
		recs := d.Records
		for len(recs) > 0 {
			n := len(recs)
			if n > 64 {
				n = 64
			}
			body, err := sentry.EncodeBatch(recs[:n])
			if err != nil {
				b.Fatal(err)
			}
			batches = append(batches, batch{device: d.ID, body: body})
			recs = recs[n:]
		}
	}
	records := fl.Records()
	var detected int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv, err := sentry.NewServer(sentry.ServerConfig{QueueDepth: 1 << 16})
		if err != nil {
			b.Fatal(err)
		}
		for _, bt := range batches {
			req := httptest.NewRequest("POST", "/v1/ingest?device="+bt.device, bytes.NewReader(bt.body))
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
		}
		detected = srv.Engine().Snapshot().Detected
	}
	b.StopTimer()
	if detected != 12 {
		b.Fatalf("detected %d devices, want the 12 planted", detected)
	}
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
	b.ReportMetric(float64(detected), "detected-devices")
}

// BenchmarkRouterIngest measures a fleet replay through the multi-node
// sentry: a sentring router fronting three sentryd peers over real HTTP,
// replicas=2. One op pushes a pre-encoded 128-device labeled fleet
// through the router's sharded ingest path; the topology is rebuilt per
// op because device sequence numbers are strictly monotonic. healthy is
// the steady state (every batch acked by its full replica set);
// one-peer-down partitions peer 0 behind the deterministic fault plane,
// so its share of batches pays failed attempts until the circuit
// breaker opens and single-replica acks after. The gap prices ingest
// failover; detected-devices anchors behaviour (all six planted
// attackers survive the dead peer, because replicas=2 keeps one live
// copy of every device's stream). scripts/bench.sh records the result
// in BENCH_sentring.json.
func BenchmarkRouterIngest(b *testing.B) {
	fl, err := sentry.GenerateFleet(sentry.FleetConfig{
		Devices: 128, Attackers: 4, NotifAbusers: 2,
		Span: 8 * time.Second, Seed: benchSeed,
	})
	if err != nil {
		b.Fatal(err)
	}
	type batch struct {
		device string
		body   []byte
	}
	var batches []batch
	for _, d := range fl.Devices {
		recs := d.Records
		for len(recs) > 0 {
			n := len(recs)
			if n > 64 {
				n = 64
			}
			body, err := sentry.EncodeBatch(recs[:n])
			if err != nil {
				b.Fatal(err)
			}
			batches = append(batches, batch{device: d.ID, body: body})
			recs = recs[n:]
		}
	}
	records := fl.Records()
	run := func(b *testing.B, prof *faults.NetProfile) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			var nodes []*sentry.Server
			var backends []*httptest.Server
			var peers []string
			for j := 0; j < 3; j++ {
				s, err := sentry.NewServer(sentry.ServerConfig{QueueDepth: 1 << 16})
				if err != nil {
					b.Fatal(err)
				}
				ts := httptest.NewServer(s)
				nodes = append(nodes, s)
				backends = append(backends, ts)
				peers = append(peers, strings.TrimPrefix(ts.URL, "http://"))
			}
			var plane *faults.NetPlane
			if prof != nil {
				plane = faults.NewNetPlane(*prof, benchSeed)
			}
			router, err := sentring.New(sentring.Config{
				Peers:           peers,
				Replicas:        2,
				Retries:         1,
				RetryBase:       time.Millisecond,
				ProbeInterval:   -1,
				BreakerCooldown: time.Hour, // stay open for the whole measured op
				NetPlane:        plane,
				Seed:            benchSeed,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for _, bt := range batches {
				req := httptest.NewRequest("POST", "/v1/ingest?device="+bt.device, bytes.NewReader(bt.body))
				rec := httptest.NewRecorder()
				router.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
				}
			}
			b.StopTimer()
			if detected := router.MergedSnapshot(context.Background()).Detected; detected != 6 {
				b.Fatalf("detected %d devices, want the 6 planted", detected)
			}
			router.Close()
			for j := range nodes {
				backends[j].Close()
				nodes[j].Close()
			}
			b.StartTimer()
		}
		b.StopTimer()
		b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
	}
	b.Run("healthy", func(b *testing.B) { run(b, nil) })
	b.Run("one-peer-down", func(b *testing.B) {
		run(b, &faults.NetProfile{Name: "bench-partition", PartitionPeers: []int{0}})
	})
}

// BenchmarkFleetGenerate measures synthesizing a 1000-device market-
// weighted population — the fleet sweep's setup cost. devices/sec is the
// headline; the weighted mean analytic bound anchors the generated
// population's shape so a speedup that skews the market model cannot pass
// as a win. scripts/bench.sh records the result in BENCH_fleet.json.
func BenchmarkFleetGenerate(b *testing.B) {
	const size = 1000
	var meanD float64
	for i := 0; i < b.N; i++ {
		fl, err := fleet.Generate(size, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		meanD = 0
		for _, e := range fl.Entries() {
			meanD += e.Weight * float64(e.Profile.ExpectedUpperBoundD()/time.Millisecond)
		}
	}
	b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "devices/sec")
	b.ReportMetric(meanD, "weighted-mean-bound-ms")
}

// BenchmarkFleetSweep runs the full fleet experiment — per-device attack,
// coarse bound search and both §VII defenses under per-device fault
// calibration — on a 200-device population at one and four workers, the
// same scale scripts/verify.sh smokes. devices/sec is the throughput
// headline; TestParallelDeterminism pins that the two worker counts
// render byte-identically.
func BenchmarkFleetSweep(b *testing.B) {
	const size = 200
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runExp(b, "fleet", benchSeed, workers, experiment.Config{FleetSize: size, FleetSeed: benchSeed})
			}
			b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "devices/sec")
		})
	}
}

// BenchmarkSimrandNew measures seeding one random stream, which every
// assembled stack does eleven times (four in Assemble, seven in
// faults.NewPlane). scripts/bench.sh records it in BENCH_fleet.json.
func BenchmarkSimrandNew(b *testing.B) {
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += simrand.New(int64(i)).Float64()
	}
	_ = sink
}

// BenchmarkSimrandStream measures one stream's life, seeding plus draws
// values. Most of the fleet sweep's streams draw fewer than 8; a stream
// that draws past 273 values also builds the generator's full state.
// scripts/bench.sh records it in BENCH_fleet.json.
func BenchmarkSimrandStream(b *testing.B) {
	for _, draws := range []int{8, 100, 1000} {
		b.Run(fmt.Sprintf("draws=%d", draws), func(b *testing.B) {
			b.ReportAllocs()
			var sink float64
			for i := 0; i < b.N; i++ {
				s := simrand.New(int64(i))
				for j := 0; j < draws; j++ {
					sink += s.Float64()
				}
			}
			_ = sink
		})
	}
}

// BenchmarkAssemble measures the per-trial construction the fleet sweep
// repeats about ten times per device: sysserver.Assemble with the fault
// plane of one fleet device, seeded the way the sweep seeds device i.
// scripts/bench.sh records it in BENCH_fleet.json.
func BenchmarkAssemble(b *testing.B) {
	fl, err := fleet.Generate(32, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	idx := -1
	for i, e := range fl.Entries() {
		if !e.Faults.Zero() {
			idx = i
			break
		}
	}
	if idx < 0 {
		b.Fatal("no faulted device in the fleet sample")
	}
	ent := fl.Entries()[idx]
	seed := benchSeed + int64(idx)*7919
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sysserver.Assemble(ent.Profile, seed, sysserver.WithFaults(faults.NewPlane(ent.Faults, seed))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpolatorFastOutSlowIn measures the Bézier solve per frame.
func BenchmarkInterpolatorFastOutSlowIn(b *testing.B) {
	ip := anim.FastOutSlowIn()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += ip.Interpolate(float64(i%1000) / 1000)
	}
	_ = sink
}

// BenchmarkBinderCall measures one simulated Binder round trip.
func BenchmarkBinderCall(b *testing.B) {
	clock := simclock.New()
	bus, err := binder.NewBus(binder.Config{Clock: clock, RNG: simrand.New(1)})
	if err != nil {
		b.Fatal(err)
	}
	if err := bus.Register(binder.SystemServer, func(binder.Transaction) {}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bus.Call("app", binder.SystemServer, "m", nil); err != nil {
			b.Fatal(err)
		}
		clock.Step()
	}
}

// BenchmarkSimClock measures raw event throughput of the scheduler.
func BenchmarkSimClock(b *testing.B) {
	clock := simclock.New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.MustAfter(time.Microsecond, "bench", fn)
		clock.Step()
	}
}

// BenchmarkFullAttackSecond measures simulating one second of the overlay
// attack on the default device.
func BenchmarkFullAttackSecond(b *testing.B) {
	p := device.Seed().Default()
	for i := 0; i < b.N; i++ {
		o, err := experiment.OutcomeForD(p, 297*time.Millisecond, time.Second, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if o != sysui.Lambda1 {
			b.Fatalf("outcome %v", o)
		}
	}
}

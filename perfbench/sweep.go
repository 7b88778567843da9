package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/binder"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/geom"
	"repro/internal/sysserver"
)

// sweepJobDevices is the population size of one sweep job: a
// market-weighted fleet sample run through the registered fleet
// experiment, at workers = nproc and again at workers = 1.
const sweepJobDevices = 32

// sweepJob names one job's experiment.
func sweepJob(seed int64, k int) experiment.Config {
	return experiment.Config{FleetSize: sweepJobDevices, FleetSeed: deriveSeed(seed, fmt.Sprintf("perfbench/sweep/job%d", k))}
}

func runSweep(cfg runConfig) (*report, error) {
	r := newReport()
	// Set-up is everything before the first measured op: building the
	// experiment, generating its fleet and deriving its trials.
	_, setup, err := medianSetup(5, func() (experiment.Experiment, error) {
		exp, err := experiment.New("fleet", sweepJob(cfg.seed, 0))
		if err != nil {
			return nil, err
		}
		_, err = exp.Trials(cfg.seed)
		return exp, err
	}, func(experiment.Experiment) {})
	if err != nil {
		return nil, err
	}
	r.e2e["setup_s"] = setup

	var parLat, genMS, renderMS []float64
	var jobAt []time.Duration // each job's start in the measured time
	var parTotal, serTotal time.Duration
	devices := 0
	mem := readMem()
	heap := startHeapSampler()
	start := time.Now()
	for k := 0; time.Since(start) < cfg.measure; k++ {
		jobAt = append(jobAt, time.Since(start))
		jc := sweepJob(cfg.seed, k)
		if cfg.trace {
			t0 := time.Now()
			if _, err := fleet.Generate(jc.FleetSize, jc.FleetSeed); err != nil {
				return nil, err
			}
			genMS = append(genMS, ms(time.Since(t0)))
		}
		// Alternate which pass goes first, so neither always runs on a
		// warmer cache.
		order := []int{cfg.nproc, 1}
		if k%2 == 1 {
			order = []int{1, cfg.nproc}
		}
		texts := map[int]string{}
		for _, workers := range order {
			out, took, render, err := sweepPass(jc, cfg.seed, workers, cfg.trace)
			if err != nil {
				return nil, err
			}
			if out.Skipped > 0 {
				r.fail("job %d workers=%d: %d devices skipped", k, workers, out.Skipped)
			}
			texts[workers] = out.Text
			if render > 0 {
				renderMS = append(renderMS, ms(render))
			}
			if workers == 1 {
				serTotal += took
			} else {
				parLat = append(parLat, ms(took))
				parTotal += took
			}
		}
		if cfg.fault == "report" && k == 0 {
			texts[cfg.nproc] += " "
		}
		r.attempted++
		if texts[cfg.nproc] != texts[1] {
			r.fail("job %d: report at workers=%d differs from workers=1", k, cfg.nproc)
		}
		devices += jc.FleetSize
	}
	r.e2e["heap_peak_mb"] = heap.peakMB()
	memd := memSince(mem)

	par := float64(devices) / parTotal.Seconds()
	ser := float64(devices) / serTotal.Seconds()
	span := time.Since(start)
	// Throughput per window: devices swept at workers = nproc per second
	// of those passes.
	r.e2e["throughput_per_s"] = windowMedian(jobAt, parLat, span, func(p []float64) float64 {
		var total float64
		for _, v := range p {
			total += v
		}
		return float64(len(p)*sweepJobDevices) / (total / 1e3)
	})
	latencyMetrics(r, jobAt, parLat, span)
	r.printf("sweep: %d jobs of %d devices (seed %d), each at workers=%d and workers=1",
		len(parLat), sweepJobDevices, cfg.seed, cfg.nproc)
	r.printf("sweep_devices_per_s %.2f devices/s (workers=%d; %.2f over the whole run)", r.e2e["throughput_per_s"], cfg.nproc, par)
	r.printf("sweep_devices_per_s_serial %.2f devices/s (workers=1)", ser)
	r.printf("sweep job latency p50 %.2f ms, p90 %.2f ms (workers=%d, %d jobs, %d beyond p90)",
		quantile(parLat, 0.5), quantile(parLat, 0.9), cfg.nproc, len(parLat), len(parLat)/10)
	r.printf("scaling %.3fx at nproc=%d", par/ser, cfg.nproc)

	if cfg.trace {
		runtimeLayer(r, memd, 2*devices)
		r.layer["fleet.generate_ms"] = quantile(genMS, 0.5)
		r.layer["experiment.render_ms"] = quantile(renderMS, 0.5)
		r.layer["sched.serial_devices_per_s"] = ser
		r.layer["sched.scaling"] = par / ser
		r.layer["sched.nproc"] = float64(cfg.nproc)
		pr, err := simProbe(sweepJob(cfg.seed, 0))
		if err != nil {
			return nil, err
		}
		pr.report(r)
	}
	return r, nil
}

// sweepPass runs one job through experiment.New + experiment.Run; a
// traced pass runs Collect and Render separately to time the rendering.
func sweepPass(jc experiment.Config, seed int64, workers int, trace bool) (experiment.Output, time.Duration, time.Duration, error) {
	exp, err := experiment.New("fleet", jc)
	if err != nil {
		return experiment.Output{}, 0, 0, err
	}
	opts := experiment.RunOpts{Seed: seed, Workers: workers}
	start := time.Now()
	if !trace {
		out, err := experiment.Run(exp, opts)
		return out, time.Since(start), 0, err
	}
	results, err := experiment.Collect(exp, opts)
	if err != nil {
		return experiment.Output{}, 0, 0, err
	}
	mid := time.Now()
	out, err := exp.Render(results)
	end := time.Now()
	return out, end.Sub(start), end.Sub(mid), err
}

// simPrefixes are the event-label prefixes the simulator probe reports
// separately; any other prefix is charged to "other".
var simPrefixes = []string{"attack", "binder", "sysserver", "sysui", "faults", "experiment"}

// simProbeResult is the simulator's per-layer work on one job's devices.
type simProbeResult struct {
	devices     int
	assembleUS  []float64
	outcomeMS   []float64
	events      map[string]uint64
	selfNS      map[string]int64
	fired       uint64
	simSeconds  float64
	runNS       int64
	binderCalls uint64
	evictions   uint64
}

// simProbe reruns the sweep's unit of work on every device of a job: it
// times sysserver.Assemble with the device's fault plane, then starts the
// overlay attack at 0.9× the device's bound with a clock trace callback
// that charges the host time between consecutive events to the earlier
// event's label prefix, and finally times experiment.OutcomeForD for the
// same device.
func simProbe(jc experiment.Config) (*simProbeResult, error) {
	fl, err := fleet.Generate(jc.FleetSize, jc.FleetSeed)
	if err != nil {
		return nil, err
	}
	pr := &simProbeResult{events: map[string]uint64{}, selfNS: map[string]int64{}}
	for i, ent := range fl.Entries() {
		p := ent.Profile
		seed := jc.FleetSeed + int64(i)*7919
		d := time.Duration(float64(boundOf(p)) * 0.9)

		t0 := time.Now()
		st, err := sysserver.Assemble(p, seed, planeFor(ent.Faults, seed)...)
		if err != nil {
			return nil, err
		}
		pr.assembleUS = append(pr.assembleUS, us(time.Since(t0)))
		st.WM.GrantOverlayPermission(experiment.AttackerApp)
		st.Bus.Observe(func(binder.Transaction) { pr.binderCalls++ })
		var prev time.Time
		prevPrefix := ""
		st.Clock.SetTrace(func(_ time.Duration, label string) {
			now := time.Now()
			if prevPrefix != "" {
				pr.selfNS[prevPrefix] += int64(now.Sub(prev))
			}
			prev, prevPrefix = now, labelPrefix(label)
			pr.events[prevPrefix]++
		})
		atk, err := core.NewOverlayAttack(st, core.OverlayAttackConfig{
			App:    experiment.AttackerApp,
			D:      d,
			Bounds: geom.RectWH(0, 0, float64(p.ScreenW), float64(p.ScreenH)),
		})
		if err != nil {
			return nil, err
		}
		runStart := time.Now()
		firedBefore := st.Clock.Fired()
		if err := atk.Start(); err != nil {
			return nil, err
		}
		st.Clock.MustAfter(6*time.Second, "experiment/stop", atk.Stop)
		if err := st.Clock.RunFor(11 * time.Second); err != nil {
			return nil, err
		}
		end := time.Now()
		if prevPrefix != "" {
			pr.selfNS[prevPrefix] += int64(end.Sub(prev))
		}
		pr.runNS += int64(end.Sub(runStart))
		pr.fired += st.Clock.Fired() - firedBefore
		pr.simSeconds += 11
		pr.evictions += st.Bus.DroppedLogEntries()

		t1 := time.Now()
		if _, err := experiment.OutcomeForD(p, d, 6*time.Second, seed, planeFor(ent.Faults, seed)...); err != nil {
			return nil, err
		}
		pr.outcomeMS = append(pr.outcomeMS, ms(time.Since(t1)))
		pr.devices++
	}
	return pr, nil
}

func (pr *simProbeResult) report(r *report) {
	r.layer["sysserver.assemble_us"] = quantile(pr.assembleUS, 0.5)
	r.layer["experiment.outcome_ms"] = quantile(pr.outcomeMS, 0.5)
	r.layer["simclock.events_per_sim_s"] = float64(pr.fired) / pr.simSeconds
	r.layer["simclock.ns_per_event"] = float64(pr.runNS) / float64(pr.fired)
	r.layer["binder.calls_per_sim_s"] = float64(pr.binderCalls) / pr.simSeconds
	r.layer["binder.log_evictions"] = float64(pr.evictions)
	for _, p := range append(simPrefixes, "other") {
		r.layer["sim."+p+".events"] = float64(pr.events[p])
		r.layer["sim."+p+".self_ms"] = float64(pr.selfNS[p]) / 1e6
	}
	r.printf("sim probe: %d devices, %d events over %.0f virtual s (%.1f events/sim-s), %d binder calls",
		pr.devices, pr.fired, pr.simSeconds, float64(pr.fired)/pr.simSeconds, pr.binderCalls)
}

// labelPrefix is an event label's text before its first ':' or '/',
// folded into "other" unless it is one of simPrefixes.
func labelPrefix(label string) string {
	if k := strings.IndexAny(label, ":/"); k >= 0 {
		label = label[:k]
	}
	for _, p := range simPrefixes {
		if label == p {
			return p
		}
	}
	return "other"
}

// boundOf is the device's Λ1 upper bound on the attack window, as the
// fleet sweep computes it: the paper's measured bound where one exists,
// the analytic one otherwise.
func boundOf(p device.Profile) time.Duration {
	if p.PaperUpperBoundD > 0 {
		return p.PaperUpperBoundD
	}
	return p.ExpectedUpperBoundD()
}

// planeFor attaches the device's fault plane, as the sweep does: a fresh
// plane per stack, none for a zero profile.
func planeFor(prof faults.Profile, seed int64) []sysserver.Option {
	if prof.Zero() {
		return nil
	}
	return []sysserver.Option{sysserver.WithFaults(faults.NewPlane(prof, seed))}
}

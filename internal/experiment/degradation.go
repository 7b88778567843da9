package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/input"
	"repro/internal/invariant"
	"repro/internal/simrand"
	"repro/internal/stats"
	"repro/internal/sysserver"
	"repro/internal/sysui"
)

// DegradationIntensities are the fault-intensity steps of the sweep: the
// base profile's probabilities scaled by each factor.
func DegradationIntensities() []float64 { return []float64{0, 0.25, 0.5, 0.75, 1} }

// degradationParticipants is how many study participants type at each
// capture-rate D — enough for a stable mean ordering, small enough that
// the five-intensity sweep stays fast.
const degradationParticipants = 4

// degradationStealLen is the password length of the sweep's Table III
// slice — the paper's middle length, where the error classes are all
// populated.
const degradationStealLen = 8

// DegradationPoint is the sweep's measurement at one fault intensity:
// which headline results of the paper survive and which collapse.
type DegradationPoint struct {
	// Intensity is the probability scale factor applied to the profile.
	Intensity float64
	// AlertSuppressed reports whether the Fig. 6 headline still holds: the
	// draw-and-destroy attack at 0.9× the device bound keeps the
	// notification alert invisible (Λ1).
	AlertSuppressed bool
	// BoundD is the Table II Λ1 upper bound re-measured under faults
	// (zero once no D keeps the alert suppressed — full collapse).
	BoundD time.Duration
	// CaptureLowD and CaptureHighD are mean Fig. 7 capture rates at
	// D = 50 ms and D = 200 ms.
	CaptureLowD, CaptureHighD float64
	// OrderingHolds reports the Fig. 7 shape: capture at the high D at
	// least matches the low D.
	OrderingHolds bool
	// StealTrials and StealSuccess fold Table III into the sweep: the
	// number of completed password-stealing trials at this intensity and
	// the percentage of passwords fully recovered.
	StealTrials  int
	StealSuccess float64
	// IPCDetected, IPCTerminated and BenignFlagged are the §VII-A defense
	// verdict under faults: the Binder-based detector must still flag and
	// terminate the attack without flagging the benign workload.
	IPCDetected   bool
	IPCTerminated bool
	BenignFlagged int
	// NotifHolds is the §VII-B verdict under faults: with the
	// delayed-removal patch the attack outcome is Λ5 and the honest app's
	// alert still completes its lifecycle.
	NotifHolds bool
	// Violations counts invariant-monitor violations recorded during the
	// monitored attack run.
	Violations int
	// ViolationsByRule bins the monitored run's recorded violations per
	// invariant rule; the sweep-wide first-break table aggregates it.
	ViolationsByRule map[string]int
	// SkippedTrials counts sub-experiments lost to a panic or error.
	SkippedTrials int
	// Faults aggregates the faults actually injected at this intensity.
	Faults faults.Stats
}

// DegradationReport is the full sweep.
type DegradationReport struct {
	Profile string
	Seed    int64
	Points  []DegradationPoint
}

// InvariantBreaks aggregates the sweep's invariant violations per rule and
// reports, most fragile rule first, the lowest intensity at which each
// first broke. Computed from the points, so it is also meaningful on a
// partial (interrupted) report.
func (r *DegradationReport) InvariantBreaks() []invariant.RuleBreak {
	agg := invariant.NewAggregate()
	for _, pt := range r.Points {
		for rule, n := range pt.ViolationsByRule {
			agg.Add(pt.Intensity, rule, n)
		}
	}
	return agg.Rows()
}

// The journaled per-sub-experiment records. Each encodes its own skip flag
// so a deterministic failure is replayed as a skip instead of re-running.
type degAttackRec struct {
	Skipped    bool           `json:"skipped,omitempty"`
	Suppressed bool           `json:"suppressed"`
	Violations int            `json:"violations"`
	ViolByRule map[string]int `json:"viol_by_rule,omitempty"`
	Faults     faults.Stats   `json:"faults"`
}

type degBoundRec struct {
	Skipped bool          `json:"skipped,omitempty"`
	BoundD  time.Duration `json:"bound_d"`
	Faults  faults.Stats  `json:"faults"`
}

type degCaptureRec struct {
	Skipped bool         `json:"skipped,omitempty"`
	Rate    float64      `json:"rate"`
	Faults  faults.Stats `json:"faults"`
}

type degStealRec struct {
	Skipped bool         `json:"skipped,omitempty"`
	Success bool         `json:"success"`
	Faults  faults.Stats `json:"faults"`
}

type degIPCRec struct {
	Skipped       bool `json:"skipped,omitempty"`
	Detected      bool `json:"detected"`
	Terminated    bool `json:"terminated"`
	BenignFlagged int  `json:"benign_flagged"`
}

type degNotifRec struct {
	Skipped bool `json:"skipped,omitempty"`
	Holds   bool `json:"holds"`
}

// degTrialKind labels which sub-experiment a degradation trial belongs to.
type degTrialKind int

const (
	degKindAttack degTrialKind = iota
	degKindBound
	degKindCapture
	degKindSteal
	degKindIPC
	degKindNotif
)

// degMeta is the per-trial context degradationExp.Trials stashes for
// Render: which intensity step and sub-experiment the trial belongs to,
// and (for steal trials) the password the participant was asked to type.
type degMeta struct {
	kind     degTrialKind
	ii       int // index into DegradationIntensities
	di       int // capture D index (capture trials only)
	password string
}

// degradationExp sweeps the named fault profile's intensity from 0 to 1
// and re-runs the headline results at every step — the Fig. 6 alert
// suppression, the Table II Λ1 bound, the Fig. 7 capture ordering, a
// Table III password-stealing slice and the §VII defense verdicts — under
// a live invariant monitor. The zero-intensity point attaches no fault
// plane at all, so it reproduces the unfaulted baseline exactly. The six
// sub-experiments of every intensity step become independent trials, so
// the sweep shards across the driver's worker pool.
type degradationExp struct {
	profileName string
	meta        []degMeta
	profile     string
	seed        int64
}

func (e *degradationExp) Name() string   { return "degradation" }
func (e *degradationExp) Params() string { return "profile=" + e.profileName }

func (e *degradationExp) Trials(seed int64) ([]Trial, error) {
	base, err := faults.ByName(e.profileName)
	if err != nil {
		return nil, err
	}
	e.profile = base.Name
	e.seed = seed
	p := device.Seed().Default()
	attackD := time.Duration(float64(boundOf(p)) * 0.9)
	root := simrand.New(seed)
	typists, err := input.Participants(root.Derive("typists"), degradationParticipants)
	if err != nil {
		return nil, fmt.Errorf("experiment: participants: %w", err)
	}
	// The Table III slice draws from its own root so folding it into the
	// sweep cannot perturb the pre-existing sub-experiments' streams.
	stealRoot := simrand.New(seed + 104729)
	stealTypists, err := input.Participants(stealRoot.Derive("steal-typists"), degradationParticipants)
	if err != nil {
		return nil, fmt.Errorf("experiment: steal participants: %w", err)
	}
	pwSrc := stealRoot.Derive("steal-passwords")
	bofa, ok := apps.ByName("Bank of America")
	if !ok {
		return nil, fmt.Errorf("experiment: BofA app missing")
	}

	e.meta = e.meta[:0]
	var trials []Trial
	add := func(m degMeta, t Trial) {
		e.meta = append(e.meta, m)
		trials = append(trials, t)
	}
	for ii, x := range DegradationIntensities() {
		ii, x := ii, x
		prof := base.Scale(x)
		pseed := seed + int64(ii)*7919

		// Every sub-experiment run gets a fresh plane from planeFor, so its
		// fault stream is independent of how long the previous one ran.
		// Planes are built inside the trial closures from fixed seeds, so
		// they draw nothing from the shared roots.

		// Sub-experiment 1 — monitored attack run at 0.9× the bound: does
		// the alert stay invisible, and do the platform invariants hold?
		add(degMeta{kind: degKindAttack, ii: ii}, NewTrial(
			fmt.Sprintf("degradation seed=%d profile=%s x=%.2f attack", seed, base.Name, x),
			fmt.Sprintf("degradation attack (x=%.2f)", x),
			func() (degAttackRec, error) {
				opts, pl := planeFor(prof, pseed)
				opts = append(opts, sysserver.WithMonitor())
				var st *sysserver.Stack
				var o sysui.Outcome
				err := safeTrial(fmt.Sprintf("degradation attack (x=%.2f)", x), func() error {
					var terr error
					if st, terr = assembleAttackStack(p, pseed, opts...); terr != nil {
						return terr
					}
					o, terr = runOverlayAttackOn(st, attackD, 6*time.Second, 5*time.Second, false, 0)
					return terr
				})
				if err != nil {
					return degAttackRec{Skipped: true}, nil
				}
				rec := degAttackRec{Suppressed: o == sysui.Lambda1, Faults: pl.Stats()}
				if st.Monitor != nil {
					rec.Violations = st.Monitor.Count()
					for _, v := range st.Monitor.Violations() {
						if rec.ViolByRule == nil {
							rec.ViolByRule = make(map[string]int)
						}
						rec.ViolByRule[v.Rule]++
					}
				}
				return rec, nil
			}))

		// Sub-experiment 2 — the Λ1 bound search under faults.
		add(degMeta{kind: degKindBound, ii: ii}, NewTrial(
			fmt.Sprintf("degradation seed=%d profile=%s x=%.2f bound", seed, base.Name, x),
			fmt.Sprintf("degradation bound (x=%.2f)", x),
			func() (degBoundRec, error) {
				opts, pl := planeFor(prof, pseed+1)
				var d time.Duration
				err := safeTrial(fmt.Sprintf("degradation bound (x=%.2f)", x), func() error {
					var terr error
					d, terr = measureUpperBoundD(p, pseed+1, opts...)
					return terr
				})
				if err != nil {
					return degBoundRec{Skipped: true}, nil
				}
				return degBoundRec{BoundD: d, Faults: pl.Stats()}, nil
			}))

		// Sub-experiment 3 — Fig. 7 capture-rate ordering: mean capture at
		// D = 50 ms must not beat D = 200 ms.
		for di, d := range degradationCaptureDs() {
			di, d := di, d
			for i := 0; i < degradationParticipants; i++ {
				i := i
				// Derived here, in the old sequential order, so the shared
				// roots advance identically whatever order the trials run in.
				strRNG := root.DeriveIndexed("strings", ii*100+di*10+i)
				typist, err := typists[i].WithStream(root.DeriveIndexed("plan", ii*100+di*10+i))
				if err != nil {
					return nil, fmt.Errorf("experiment: trial typist: %w", err)
				}
				add(degMeta{kind: degKindCapture, ii: ii, di: di}, NewTrial(
					fmt.Sprintf("degradation seed=%d profile=%s x=%.2f capture d=%dms p=%d", seed, base.Name, x, d/time.Millisecond, i),
					fmt.Sprintf("degradation capture (x=%.2f, D=%v, participant %d)", x, d, i),
					func() (degCaptureRec, error) {
						opts, pl := planeFor(prof, pseed+2+int64(di*100+i))
						var rate float64
						err := safeTrial(fmt.Sprintf("degradation capture (x=%.2f, D=%v, participant %d)", x, d, i), func() error {
							var terr error
							rate, terr = runCaptureTrial(p, typist, d, strRNG,
								pseed+2+int64(di*100+i), opts...)
							return terr
						})
						if err != nil {
							return degCaptureRec{Skipped: true}, nil
						}
						return degCaptureRec{Rate: rate, Faults: pl.Stats()}, nil
					}))
			}
		}

		// Sub-experiment 4 — Table III slice: each sweep participant types
		// one random password while the stealer runs under faults.
		for i := 0; i < degradationParticipants; i++ {
			i := i
			password := input.RandomPassword(pwSrc, degradationStealLen)
			typist, err := stealTypists[i].WithStream(stealRoot.DeriveIndexed("steal-plan", ii*degradationParticipants+i))
			if err != nil {
				return nil, fmt.Errorf("experiment: trial typist: %w", err)
			}
			add(degMeta{kind: degKindSteal, ii: ii, password: password}, NewTrial(
				fmt.Sprintf("degradation seed=%d profile=%s x=%.2f steal p=%d", seed, base.Name, x, i),
				fmt.Sprintf("degradation steal (x=%.2f, participant %d)", x, i),
				func() (degStealRec, error) {
					opts, pl := planeFor(prof, pseed+500+int64(i))
					var trial StealTrialResult
					err := safeTrial(fmt.Sprintf("degradation steal (x=%.2f, participant %d)", x, i), func() error {
						var terr error
						trial, terr = RunStealTrial(p, typist, bofa, password,
							pseed+3000+int64(i), opts...)
						return terr
					})
					if err != nil {
						return degStealRec{Skipped: true}, nil
					}
					return degStealRec{
						Success: ClassifyTrial(password, trial.Stolen) == ErrorNone,
						Faults:  pl.Stats(),
					}, nil
				}))
		}

		// Sub-experiment 5 — §VII-A IPC defense verdict under faults.
		add(degMeta{kind: degKindIPC, ii: ii}, NewTrial(
			fmt.Sprintf("degradation seed=%d profile=%s x=%.2f defense-ipc", seed, base.Name, x),
			fmt.Sprintf("degradation defense-ipc (x=%.2f)", x),
			func() (degIPCRec, error) {
				var drep DefenseIPCReport
				err := safeTrial(fmt.Sprintf("degradation defense-ipc (x=%.2f)", x), func() error {
					var terr error
					drep, terr = DefenseIPC(pseed+4000, prof)
					return terr
				})
				if err != nil {
					return degIPCRec{Skipped: true}, nil
				}
				return degIPCRec{
					Detected:      drep.AttackDetected,
					Terminated:    drep.AttackTerminated,
					BenignFlagged: drep.BenignFlagged,
				}, nil
			}))

		// Sub-experiment 6 — §VII-B enhanced-notification verdict under
		// faults.
		add(degMeta{kind: degKindNotif, ii: ii}, NewTrial(
			fmt.Sprintf("degradation seed=%d profile=%s x=%.2f defense-notif", seed, base.Name, x),
			fmt.Sprintf("degradation defense-notif (x=%.2f)", x),
			func() (degNotifRec, error) {
				var nrep DefenseNotifReport
				err := safeTrial(fmt.Sprintf("degradation defense-notif (x=%.2f)", x), func() error {
					var terr error
					nrep, terr = DefenseNotif(pseed+5000, prof)
					return terr
				})
				if err != nil {
					return degNotifRec{Skipped: true}, nil
				}
				return degNotifRec{Holds: nrep.OutcomeWith == sysui.Lambda5 && nrep.HonestAlertGone}, nil
			}))
	}
	return trials, nil
}

// degradationCaptureDs are the sweep's two Fig. 7 probe windows.
func degradationCaptureDs() []time.Duration {
	return []time.Duration{50 * time.Millisecond, 200 * time.Millisecond}
}

// report reassembles the sweep report from the per-trial records, walking
// the trials in their original sequential order so every accumulation
// (fault stats, capture-rate sums) happens exactly as the old runner did.
func (e *degradationExp) report(results []any) *DegradationReport {
	ints := DegradationIntensities()
	points := make([]DegradationPoint, len(ints))
	type capAcc struct {
		sum [2]float64
		n   [2]int
	}
	caps := make([]capAcc, len(ints))
	stealSucc := make([]int, len(ints))
	for ii, x := range ints {
		points[ii].Intensity = x
	}
	for ti, m := range e.meta {
		pt := &points[m.ii]
		switch m.kind {
		case degKindAttack:
			rec := Res[degAttackRec](results, ti)
			if rec.Skipped {
				pt.SkippedTrials++
				continue
			}
			pt.AlertSuppressed = rec.Suppressed
			pt.Violations += rec.Violations
			pt.ViolationsByRule = rec.ViolByRule
			pt.Faults = pt.Faults.Add(rec.Faults)
		case degKindBound:
			rec := Res[degBoundRec](results, ti)
			if rec.Skipped {
				pt.SkippedTrials++
				continue
			}
			pt.BoundD = rec.BoundD
			pt.Faults = pt.Faults.Add(rec.Faults)
		case degKindCapture:
			rec := Res[degCaptureRec](results, ti)
			if rec.Skipped {
				pt.SkippedTrials++
				continue
			}
			pt.Faults = pt.Faults.Add(rec.Faults)
			caps[m.ii].sum[m.di] += rec.Rate
			caps[m.ii].n[m.di]++
		case degKindSteal:
			rec := Res[degStealRec](results, ti)
			if rec.Skipped {
				pt.SkippedTrials++
				continue
			}
			pt.Faults = pt.Faults.Add(rec.Faults)
			pt.StealTrials++
			if rec.Success {
				stealSucc[m.ii]++
			}
		case degKindIPC:
			rec := Res[degIPCRec](results, ti)
			if rec.Skipped {
				pt.SkippedTrials++
				continue
			}
			pt.IPCDetected = rec.Detected
			pt.IPCTerminated = rec.Terminated
			pt.BenignFlagged = rec.BenignFlagged
		case degKindNotif:
			rec := Res[degNotifRec](results, ti)
			if rec.Skipped {
				pt.SkippedTrials++
				continue
			}
			pt.NotifHolds = rec.Holds
		}
	}
	for ii := range points {
		pt := &points[ii]
		measured := true
		var means [2]float64
		for di := 0; di < 2; di++ {
			if caps[ii].n[di] == 0 {
				measured = false
				continue
			}
			means[di] = caps[ii].sum[di] / float64(caps[ii].n[di])
		}
		pt.CaptureLowD, pt.CaptureHighD = means[0], means[1]
		pt.OrderingHolds = measured && pt.CaptureHighD >= pt.CaptureLowD
		pt.StealSuccess = stats.Ratio(stealSucc[ii], pt.StealTrials)
	}
	return &DegradationReport{Profile: e.profile, Seed: e.seed, Points: points}
}

func (e *degradationExp) Render(results []any) (Output, error) {
	rep := e.report(results)
	skipped := 0
	for _, pt := range rep.Points {
		skipped += pt.SkippedTrials
	}
	return Output{Text: RenderDegradation(rep), Skipped: skipped}, nil
}

// degradationHeadlines are the sweep's survive/collapse predicates, shared
// by the survival summary and the monotonicity check.
func degradationHeadlines() []struct {
	name  string
	holds func(DegradationPoint) bool
} {
	return []struct {
		name  string
		holds func(DegradationPoint) bool
	}{
		{"alert suppression (Fig. 6)", func(pt DegradationPoint) bool { return pt.AlertSuppressed }},
		{"Λ1 bound > 0 (Table II)", func(pt DegradationPoint) bool { return pt.BoundD > 0 }},
		{"capture ordering (Fig. 7)", func(pt DegradationPoint) bool { return pt.OrderingHolds }},
		{"password recovery ≥ 50% (Table III)", func(pt DegradationPoint) bool {
			return pt.StealTrials > 0 && pt.StealSuccess >= 50
		}},
		{"IPC defense verdict (§VII-A)", func(pt DegradationPoint) bool {
			return pt.IPCDetected && pt.IPCTerminated && pt.BenignFlagged == 0
		}},
		{"notification defense Λ5 (§VII-B)", func(pt DegradationPoint) bool { return pt.NotifHolds }},
	}
}

// MonotoneAnomalies scans the sweep for survive/fail patterns no monotone
// degradation can produce: a headline that fails at some intensity but
// holds again at a strictly higher one. Random faults make individual
// points noisy, so an anomaly is not proof of a bug — but a sweep that
// recovers under MORE faults most often means a sweep-ordering or seeding
// error, and the report flags it.
func MonotoneAnomalies(r *DegradationReport) []string {
	var out []string
	for _, h := range degradationHeadlines() {
		failedAt := -1.0
		for _, pt := range r.Points {
			if !h.holds(pt) {
				if failedAt < 0 {
					failedAt = pt.Intensity
				}
				continue
			}
			if failedAt >= 0 && pt.Intensity > failedAt {
				out = append(out, fmt.Sprintf("%s: fails at intensity %.2f but holds at %.2f",
					h.name, failedAt, pt.Intensity))
				break
			}
		}
	}
	return out
}

// RenderDegradation formats the sweep as one row per intensity plus a
// survive/collapse summary per headline result, the sweep-wide invariant
// first-break table and any monotonicity anomalies.
func RenderDegradation(r *DegradationReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Degradation — headline results vs fault intensity (profile %q, seed %d)\n", r.Profile, r.Seed)
	sb.WriteString("  intensity  alert-Λ1  bound-D  capt@50ms  capt@200ms  ordering  violations  skipped\n")
	for _, pt := range r.Points {
		fmt.Fprintf(&sb, "  %9.2f  %-8v  %5dms  %8.1f%%  %9.1f%%  %-8v  %10d  %7d\n",
			pt.Intensity, pt.AlertSuppressed, pt.BoundD/time.Millisecond,
			pt.CaptureLowD, pt.CaptureHighD, pt.OrderingHolds, pt.Violations, pt.SkippedTrials)
	}
	sb.WriteString("  intensity  steal-recov  ipc-detect  ipc-term  benign-fp  notif-Λ5\n")
	for _, pt := range r.Points {
		fmt.Fprintf(&sb, "  %9.2f  %10.1f%%  %-10v  %-8v  %9d  %-8v\n",
			pt.Intensity, pt.StealSuccess, pt.IPCDetected, pt.IPCTerminated, pt.BenignFlagged, pt.NotifHolds)
	}
	for _, pt := range r.Points {
		if !pt.Faults.Zero() {
			fmt.Fprintf(&sb, "  faults @%.2f: %s\n", pt.Intensity, pt.Faults)
		}
	}
	sb.WriteString(invariant.RenderRuleBreaks(r.InvariantBreaks()))
	for _, h := range degradationHeadlines() {
		collapsed := false
		for _, pt := range r.Points {
			if !h.holds(pt) {
				fmt.Fprintf(&sb, "  %s: collapses at intensity %.2f\n", h.name, pt.Intensity)
				collapsed = true
				break
			}
		}
		if !collapsed {
			fmt.Fprintf(&sb, "  %s: survives the full sweep\n", h.name)
		}
	}
	if anomalies := MonotoneAnomalies(r); len(anomalies) > 0 {
		sb.WriteString("  WARNING: non-monotone degradation (possible sweep-ordering bug):\n")
		for _, a := range anomalies {
			fmt.Fprintf(&sb, "    %s\n", a)
		}
	}
	return sb.String()
}

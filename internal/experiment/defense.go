package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/appstore"
	"repro/internal/binder"
	"repro/internal/defense"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/simrand"
	"repro/internal/sysserver"
	"repro/internal/sysui"
	"repro/internal/wm"
)

// DefenseIPCReport is the Section VII-A evaluation: the detector must flag
// and stop the attack quickly while never flagging benign overlay usage.
type DefenseIPCReport struct {
	AttackDetected   bool
	DetectionLatency time.Duration
	AttackTerminated bool
	// AlertOutcomeAfter reports the worst alert outcome in the attack
	// run (once terminated, the standing overlay is gone so no alert is
	// needed; the detector is the defense here).
	AlertOutcomeAfter sysui.Outcome
	// BenignFlagged counts false positives in the benign scenario.
	BenignFlagged int
	// TransactionsObserved is the defense's analysis volume.
	TransactionsObserved uint64
	// FaultProfile names the fault profile active during the attack run
	// (empty when the run was unfaulted).
	FaultProfile string
	// Binder is the attack run's bus accounting. Non-zero InjectedDrops
	// means the detector's transaction stream was lossy.
	Binder binder.Stats
}

// ipcAttackDur is how long the attack runs against the armed detector.
const ipcAttackDur = 20 * time.Second

// DefenseIPC evaluates the IPC-based detector on both an attack scenario
// and a benign-workload scenario. prof is the fault profile active on the
// attack scenario's stack; the benign scenario stays unfaulted, since its
// job is measuring false positives under normal conditions. A zero profile
// attaches no plane at all.
func DefenseIPC(seed int64, prof faults.Profile) (DefenseIPCReport, error) {
	p := device.Seed().Default()

	// Scenario 1: the draw-and-destroy overlay attack, detector armed to
	// terminate.
	opts, pl := planeFor(prof, seed)
	rep, err := ipcAttack(new(sysserver.Stack), p, time.Duration(float64(p.PaperUpperBoundD)*0.9), seed, opts...)
	if err != nil {
		return rep, err
	}
	if pl != nil {
		rep.FaultProfile = prof.Name
	}

	// Scenario 2: benign workload — a floating music widget toggling
	// slowly must not be flagged.
	st2, err := sysserver.Assemble(p, seed+1)
	if err != nil {
		return rep, fmt.Errorf("experiment: assemble benign stack: %w", err)
	}
	const musicApp binder.ProcessID = "com.music.player"
	st2.WM.GrantOverlayPermission(musicApp)
	det2, err := defense.NewIPCDetector()
	if err != nil {
		return rep, fmt.Errorf("experiment: benign detector: %w", err)
	}
	if err := det2.Install(st2, false); err != nil {
		return rep, fmt.Errorf("experiment: install benign detector: %w", err)
	}
	var sink errSink
	for i := 0; i < 8; i++ {
		i := i
		h := uint64(i + 1)
		st2.Clock.MustAfter(time.Duration(i)*8*time.Second, "widget-on", func() {
			if _, err := st2.Bus.Call(musicApp, binder.SystemServer, sysserver.MethodAddView, sysserver.AddViewRequest{
				Handle: h, Type: wm.TypeApplicationOverlay, Bounds: geom.RectWH(50, 50, 300, 300),
			}); err != nil {
				sink.setf("experiment: benign addView: %w", err)
			}
		})
		st2.Clock.MustAfter(time.Duration(i)*8*time.Second+4*time.Second, "widget-off", func() {
			if _, err := st2.Bus.Call(musicApp, binder.SystemServer, sysserver.MethodRemoveView, sysserver.RemoveViewRequest{Handle: h}); err != nil {
				sink.setf("experiment: benign removeView: %w", err)
			}
		})
	}
	if err := st2.Clock.RunFor(90 * time.Second); err != nil {
		return rep, fmt.Errorf("experiment: run benign scenario: %w", err)
	}
	if sink.err != nil {
		return rep, sink.err
	}
	if err := det2.Err(); err != nil {
		return rep, fmt.Errorf("experiment: benign detector: %w", err)
	}
	rep.BenignFlagged = len(det2.Detections())
	return rep, nil
}

// ipcAttack resets st to p and seed under opts, runs the overlay attack
// at window d against the §VII-A detector armed to terminate, and fills
// the report's attack-scenario fields: the verdict, its latency, the
// alert outcome and the bus accounting behind the detector's transaction
// stream.
func ipcAttack(st *sysserver.Stack, p device.Profile, d time.Duration, seed int64, opts ...sysserver.Option) (DefenseIPCReport, error) {
	var rep DefenseIPCReport
	if err := resetAttackStack(st, p, seed, opts...); err != nil {
		return rep, err
	}
	det, err := defense.NewIPCDetector()
	if err != nil {
		return rep, fmt.Errorf("experiment: detector: %w", err)
	}
	if err := det.Install(st, true); err != nil {
		return rep, fmt.Errorf("experiment: install detector: %w", err)
	}
	if rep.AlertOutcomeAfter, err = runOverlayAttackOn(st, d, ipcAttackDur, 5*time.Second, false, 0); err != nil {
		return rep, err
	}
	if err := det.Err(); err != nil {
		return rep, fmt.Errorf("experiment: detector: %w", err)
	}
	rep.AttackDetected = det.Detected(AttackerApp)
	if ds := det.Detections(); len(ds) > 0 {
		rep.DetectionLatency = ds[0].At
	}
	rep.AttackTerminated = !st.WM.HasOverlayPermission(AttackerApp) && st.WM.OverlayCount(AttackerApp) == 0
	rep.TransactionsObserved = det.Observed()
	rep.Binder = st.Bus.Stats()
	return rep, nil
}

// RenderDefenseIPC formats the report.
func RenderDefenseIPC(r DefenseIPCReport) string {
	var sb strings.Builder
	sb.WriteString("Defense §VII-A — IPC (Binder) based detection\n")
	fmt.Fprintf(&sb, "  attack detected:      %v\n", r.AttackDetected)
	fmt.Fprintf(&sb, "  detection latency:    %v\n", r.DetectionLatency)
	fmt.Fprintf(&sb, "  attack terminated:    %v\n", r.AttackTerminated)
	fmt.Fprintf(&sb, "  benign apps flagged:  %d (want 0)\n", r.BenignFlagged)
	fmt.Fprintf(&sb, "  transactions analyzed: %d\n", r.TransactionsObserved)
	if r.FaultProfile != "" {
		fmt.Fprintf(&sb, "  fault profile active:  %s\n", r.FaultProfile)
	}
	b := r.Binder
	if b.InjectedDrops > 0 {
		fmt.Fprintf(&sb, "  WARNING: %d transactions silently dropped by fault injection — the detector analyzed a lossy stream\n", b.InjectedDrops)
	}
	fmt.Fprintf(&sb, "  binder accounting:    calls %d + duplicated %d == delivered %d + in flight %d + injected drops %d + unroutable %d\n",
		b.Calls, b.Duplicated, b.Delivered, b.InFlight, b.InjectedDrops, b.Unroutable)
	if !b.Balanced() {
		sb.WriteString("  WARNING: binder accounting identity fails — the bus lost or invented a transaction\n")
	}
	return sb.String()
}

// DefenseNotifReport is the Section VII-B evaluation on the Pixel 2 with
// t = 690 ms.
type DefenseNotifReport struct {
	DelayT          time.Duration
	OutcomeWithout  sysui.Outcome
	OutcomeWith     sysui.Outcome
	HonestOutcome   sysui.Outcome
	HonestAlertGone bool
}

// notifDelayT is the §VII-B delayed-removal time the paper evaluates.
const notifDelayT = 690 * time.Millisecond

// DefenseNotif evaluates the enhanced-notification defense on the Pixel 2:
// the same attack run with and without the delayed-removal patch, plus an
// honest overlay app under the patch. prof is active on every stack (each
// run gets a fresh plane from its own seed), so the degradation sweep can
// ask whether the patch still wins on a lossy platform; a zero profile
// attaches no plane at all.
func DefenseNotif(seed int64, prof faults.Profile) (DefenseNotifReport, error) {
	rep := DefenseNotifReport{DelayT: notifDelayT}
	p, err := seedDevice("pixel 2")
	if err != nil {
		return rep, err
	}
	d := time.Duration(float64(boundOf(p)) * 0.9)
	st := new(sysserver.Stack)
	opts, _ := planeFor(prof, seed+100)
	if rep.OutcomeWithout, err = attackOutcome(st, p, d, 10*time.Second, false, 0, seed, opts...); err != nil {
		return rep, err
	}
	opts, _ = planeFor(prof, seed+101)
	if rep.OutcomeWith, err = attackOutcome(st, p, d, 10*time.Second, true, 0, seed+1, opts...); err != nil {
		return rep, err
	}

	// Honest overlay app under the defense: correct lifecycle.
	opts, _ = planeFor(prof, seed+102)
	if err := st.Reset(p, seed+2, opts...); err != nil {
		return rep, fmt.Errorf("experiment: honest stack: %w", err)
	}
	st.Server.EnableEnhancedNotificationDefense(notifDelayT)
	const honestApp binder.ProcessID = "com.maps.app"
	st.WM.GrantOverlayPermission(honestApp)
	if _, err := st.Bus.Call(honestApp, binder.SystemServer, sysserver.MethodAddView, sysserver.AddViewRequest{
		Handle: 1, Type: wm.TypeApplicationOverlay, Bounds: geom.RectWH(0, 0, 400, 400),
	}); err != nil {
		return rep, fmt.Errorf("experiment: honest addView: %w", err)
	}
	var sink errSink
	st.Clock.MustAfter(5*time.Second, "honest-rm", func() {
		if _, err := st.Bus.Call(honestApp, binder.SystemServer, sysserver.MethodRemoveView, sysserver.RemoveViewRequest{Handle: 1}); err != nil {
			sink.setf("experiment: honest removeView: %w", err)
		}
	})
	if err := st.Clock.RunFor(15 * time.Second); err != nil {
		return rep, fmt.Errorf("experiment: run honest scenario: %w", err)
	}
	if sink.err != nil {
		return rep, sink.err
	}
	rep.HonestOutcome = st.UI.WorstOutcome()
	rep.HonestAlertGone = !st.UI.ActiveAlert(honestApp)
	return rep, nil
}

// RenderDefenseNotif formats the report.
func RenderDefenseNotif(r DefenseNotifReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Defense §VII-B — enhanced notification (t = %v, Pixel 2)\n", r.DelayT)
	fmt.Fprintf(&sb, "  attack outcome without defense: %s (want Λ1: attack wins)\n", r.OutcomeWithout)
	fmt.Fprintf(&sb, "  attack outcome with defense:    %s (want Λ5: defense wins)\n", r.OutcomeWith)
	fmt.Fprintf(&sb, "  honest app outcome:             %s, alert removed: %v\n", r.HonestOutcome, r.HonestAlertGone)
	return sb.String()
}

// DefenseVetReport is the static half of the Section VII defense: a
// scan-before-install vetting pass over a small generated market slice,
// with the full verdicts (including evidence traces) for the denied apps.
type DefenseVetReport struct {
	// Scanned is the number of apps vetted.
	Scanned int
	// Denied counts apps rejected by the vetting pass.
	Denied int
	// TruthCapable counts apps that ground truth says hold a tapjacking
	// capability (overlay, toast-replacement or a11y-timing).
	TruthCapable int
	// Mistakes counts verdicts that disagree with ground truth.
	Mistakes int
	// Verdicts holds the DENY verdicts, evidence traces included.
	Verdicts []defense.VetVerdict
}

// DefenseVet generates n market apps at the paper's capability rates and
// runs the pre-install vetting pass over each, comparing verdicts against
// generator ground truth.
func DefenseVet(seed int64, n int) (DefenseVetReport, error) {
	var rep DefenseVetReport
	gen, err := appstore.NewGenerator(simrand.New(seed), appstore.PaperRates())
	if err != nil {
		return rep, fmt.Errorf("experiment: vet generator: %w", err)
	}
	for i := 0; i < n; i++ {
		apk := gen.Next()
		v, err := defense.Vet(apk.IR)
		if err != nil {
			return rep, fmt.Errorf("experiment: vet %s: %w", apk.Package, err)
		}
		rep.Scanned++
		capable := apk.Truth.Overlay || apk.Truth.ToastReplace || apk.Truth.A11yTiming
		if capable {
			rep.TruthCapable++
		}
		if !v.Allow {
			rep.Denied++
			rep.Verdicts = append(rep.Verdicts, v)
		}
		if v.Allow == capable {
			rep.Mistakes++
		}
	}
	return rep, nil
}

// RenderDefenseVet formats the report, showing at most maxVerdicts full
// evidence traces.
func RenderDefenseVet(r DefenseVetReport, maxVerdicts int) string {
	var sb strings.Builder
	sb.WriteString("Defense §VII — static pre-install vetting (call-graph detectors)\n")
	fmt.Fprintf(&sb, "  apps scanned:          %d\n", r.Scanned)
	fmt.Fprintf(&sb, "  installs denied:       %d (ground truth capable: %d)\n", r.Denied, r.TruthCapable)
	fmt.Fprintf(&sb, "  verdicts vs truth:     %d mistakes\n", r.Mistakes)
	shown := r.Verdicts
	if maxVerdicts >= 0 && len(shown) > maxVerdicts {
		shown = shown[:maxVerdicts]
	}
	for _, v := range shown {
		for _, line := range strings.Split(v.String(), "\n") {
			fmt.Fprintf(&sb, "  %s\n", line)
		}
	}
	if hidden := len(r.Verdicts) - len(shown); hidden > 0 {
		fmt.Fprintf(&sb, "  … %d more denial verdicts elided\n", hidden)
	}
	return sb.String()
}

// DefenseToastGapReport is the evaluation of the toast-scheduling defense
// the paper sketches at the end of Section VII-B: a mandatory gap between
// successive toasts of one app.
type DefenseToastGapReport struct {
	Gap time.Duration
	// MinAlphaWithout and MinAlphaWith are the fake keyboard's lowest
	// combined opacity during an attack chain without/with the defense.
	MinAlphaWithout, MinAlphaWith float64
}

// DefenseToastGap runs the draw-and-destroy toast attack against a stock
// device and a device with the gap defense; the defense must force the
// toast to vanish between hand-offs (visible flicker).
func DefenseToastGap(seed int64) (DefenseToastGapReport, error) {
	const gap = 400 * time.Millisecond
	rep := DefenseToastGapReport{Gap: gap}
	p := device.Seed().Default()
	var err error
	if rep.MinAlphaWithout, err = toastMinAlpha(p, seed, 10*time.Millisecond, nil); err != nil {
		return rep, fmt.Errorf("experiment: toast-gap baseline: %w", err)
	}
	rep.MinAlphaWith, err = toastMinAlpha(p, seed+1, 10*time.Millisecond, func(st *sysserver.Stack) {
		st.Server.EnableToastGapDefense(gap)
	})
	if err != nil {
		return rep, fmt.Errorf("experiment: toast-gap defended: %w", err)
	}
	return rep, nil
}

// RenderDefenseToastGap formats the report.
func RenderDefenseToastGap(r DefenseToastGapReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Defense §VII-B (toast scheduling, gap = %v)\n", r.Gap)
	fmt.Fprintf(&sb, "  min fake-kbd opacity without defense: %.2f (no flicker: attack wins)\n", r.MinAlphaWithout)
	fmt.Fprintf(&sb, "  min fake-kbd opacity with defense:    %.2f (flicker: user alerted)\n", r.MinAlphaWith)
	return sb.String()
}

package experiment

import (
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/input"
	"repro/internal/simrand"
	"repro/internal/sysui"
)

func TestFig2Anchors(t *testing.T) {
	pts := Fig2()
	if len(pts) != 37 {
		t.Fatalf("points = %d, want 37", len(pts))
	}
	if pts[0].Completeness != 0 {
		t.Fatal("curve does not start at 0")
	}
	if last := pts[len(pts)-1]; last.Completeness < 0.999 {
		t.Fatalf("curve ends at %v, want 1", last.Completeness)
	}
	// Paper: less than 50% in the first 100 ms.
	for _, p := range pts {
		if p.At == 100*time.Millisecond && p.Completeness >= 0.5 {
			t.Fatalf("completeness at 100ms = %v, want < 0.5", p.Completeness)
		}
	}
	if s := RenderFig2(); s == "" {
		t.Fatal("empty render")
	}
}

func TestFig4EnterAboveExit(t *testing.T) {
	dec, acc := Fig4()
	if len(dec) != len(acc) {
		t.Fatalf("series lengths differ: %d vs %d", len(dec), len(acc))
	}
	for i := range dec {
		if dec[i].Completeness < acc[i].Completeness-1e-9 {
			t.Fatalf("enter below exit at %v", dec[i].At)
		}
	}
	if s := RenderFig4(); s == "" {
		t.Fatal("empty render")
	}
}

// TestFig6Progression: sweeping D on one device must show the Λ1→Λ5
// progression with a monotone non-decreasing outcome sequence.
func TestFig6Progression(t *testing.T) {
	e := &fig6Exp{model: "mi8"}
	results, err := Collect(e, RunOpts{Seed: 1})
	if err != nil {
		t.Fatalf("fig6: %v", err)
	}
	pts := e.points(results)
	if pts[0].Outcome != sysui.Lambda1 {
		t.Fatalf("outcome at smallest D = %v, want Λ1", pts[0].Outcome)
	}
	if last := pts[len(pts)-1].Outcome; last != sysui.Lambda5 {
		t.Fatalf("outcome at largest D = %v, want Λ5", last)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Outcome < pts[i-1].Outcome {
			t.Fatalf("outcomes regressed at %v: %v after %v", pts[i].D, pts[i].Outcome, pts[i-1].Outcome)
		}
	}
	// All five regimes of Fig. 6 must appear in the sweep.
	if got := len(Regimes(pts)); got != 5 {
		t.Fatalf("sweep visited %d outcome regimes, want all 5", got)
	}
	if s := RenderFig6("mi8", pts); s == "" {
		t.Fatal("empty render")
	}
	if _, err := Collect(&fig6Exp{model: "no-such-phone"}, RunOpts{Seed: 1}); err == nil {
		t.Fatal("unknown model accepted")
	}
}

// TestMeasuredUpperBoundMatchesTableII measures the D bound on a spread of
// devices (one per Android version) and checks it lands within 20 ms of
// the paper's value.
func TestMeasuredUpperBoundMatchesTableII(t *testing.T) {
	for _, model := range []string{"s8", "mi8", "mi9", "pixel 2"} {
		model := model
		t.Run(model, func(t *testing.T) {
			p, ok := device.Seed().ByModel(model)
			if !ok {
				t.Fatalf("profile %s missing", model)
			}
			measured, err := measureUpperBoundD(p, 11)
			if err != nil {
				t.Fatalf("measureUpperBoundD: %v", err)
			}
			diff := measured - p.PaperUpperBoundD
			if diff < 0 {
				diff = -diff
			}
			if diff > 20*time.Millisecond {
				t.Fatalf("measured %v, paper %v (Δ %v)", measured, p.PaperUpperBoundD, diff)
			}
		})
	}
}

// TestLoadImpactNegligible reproduces the Section VI-B finding.
func TestLoadImpactNegligible(t *testing.T) {
	e := &loadExp{model: "mi8"}
	results, err := Collect(e, RunOpts{Seed: 3})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	rows := e.rows(results)
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	base := rows[0].MeasuredD
	for _, r := range rows[1:] {
		diff := r.MeasuredD - base
		if diff < 0 {
			diff = -diff
		}
		if diff > 15*time.Millisecond {
			t.Fatalf("load %d apps moved bound by %v; paper says negligible", r.BackgroundApps, diff)
		}
	}
	if s := RenderLoadImpact("mi8", rows); s == "" {
		t.Fatal("empty render")
	}
}

// TestCaptureRateShape checks the Fig. 7 monotonicity and rough band on a
// subset of the sweep, and the Fig. 8 version ordering at D = 200 ms.
func TestCaptureRateShape(t *testing.T) {
	root := simrand.New(5)
	typists, err := input.Participants(root.Derive("typists"), NumParticipants)
	if err != nil {
		t.Fatalf("Participants: %v", err)
	}
	meanAt := func(d time.Duration) (all float64, byVersion map[int]float64) {
		byVersionSum := make(map[int]float64)
		byVersionN := make(map[int]int)
		sum := 0.0
		for i := 0; i < NumParticipants; i++ {
			p := participantDevice(i)
			rate, err := runCaptureTrial(p, typists[i], d, root.DeriveIndexed("s", int(d/time.Millisecond)*100+i), 5+int64(i))
			if err != nil {
				t.Fatalf("runCaptureTrial: %v", err)
			}
			sum += rate
			byVersionSum[p.Version.Major] += rate
			byVersionN[p.Version.Major]++
		}
		byVersion = make(map[int]float64, len(byVersionSum))
		for v, s := range byVersionSum {
			byVersion[v] = s / float64(byVersionN[v])
		}
		return sum / NumParticipants, byVersion
	}
	m50, _ := meanAt(50 * time.Millisecond)
	m100, _ := meanAt(100 * time.Millisecond)
	m200, by200 := meanAt(200 * time.Millisecond)
	if !(m50 < m100 && m100 < m200) {
		t.Fatalf("capture not monotone in D: %.1f, %.1f, %.1f", m50, m100, m200)
	}
	// Paper bands: 61.0 at 50 ms, 86.7 at 100 ms, 92.8 at 200 ms.
	if m50 < 45 || m50 > 75 {
		t.Errorf("mean at D=50 = %.1f, want ≈61", m50)
	}
	if m100 < 72 || m100 > 95 {
		t.Errorf("mean at D=100 = %.1f, want ≈87", m100)
	}
	if m200 < 85 || m200 > 98 {
		t.Errorf("mean at D=200 = %.1f, want ≈93", m200)
	}
	// Fig. 8: Android 10 below Android 8/9 at D = 200 ms.
	if by200[10] >= by200[9] {
		t.Errorf("Android 10 capture (%.1f) not below Android 9 (%.1f) at D=200", by200[10], by200[9])
	}
}

func TestClassifyTrial(t *testing.T) {
	tests := []struct {
		intended, stolen string
		want             ErrorKind
	}{
		{"abcd", "abcd", ErrorNone},
		{"abcd", "abc", ErrorLength},
		{"abcd", "abcde", ErrorLength},
		{"aBcd", "abcd", ErrorCapitalization},
		{"abcd", "abce", ErrorWrongKey},
		{"aB3$", "aB3$", ErrorNone},
		{"", "", ErrorNone},
	}
	for _, tt := range tests {
		if got := ClassifyTrial(tt.intended, tt.stolen); got != tt.want {
			t.Errorf("ClassifyTrial(%q,%q) = %v, want %v", tt.intended, tt.stolen, got, tt.want)
		}
	}
	for _, k := range []ErrorKind{ErrorNone, ErrorLength, ErrorCapitalization, ErrorWrongKey, ErrorKind(9)} {
		if k.String() == "" {
			t.Fatal("empty ErrorKind string")
		}
	}
}

// TestTableIIIBand runs a reduced Table III (1 password per participant
// per length) and checks the paper's qualitative findings: high success
// everywhere, decreasing with length, length errors the dominant class.
func TestTableIIIBand(t *testing.T) {
	e := &table3Exp{perParticipant: 1}
	results, err := Collect(e, RunOpts{Seed: 7})
	if err != nil {
		t.Fatalf("table3: %v", err)
	}
	rows := e.rows(results)
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	for _, r := range rows {
		if r.Trials != NumParticipants {
			t.Fatalf("length %d trials = %d, want %d", r.Length, r.Trials, NumParticipants)
		}
		if got := r.Successes + r.LengthErrors + r.WrongKeyErrors + r.CapitalizationErrors; got != r.Trials {
			t.Fatalf("length %d outcomes sum to %d, want %d", r.Length, got, r.Trials)
		}
		if r.SuccessRate() < 70 {
			t.Errorf("length %d success = %.1f%%, paper band is 84–93%%", r.Length, r.SuccessRate())
		}
	}
	if rows[0].SuccessRate() < rows[len(rows)-1].SuccessRate()-1e-9 {
		// Success must not increase with length (allowing ties on the
		// small test sample).
		t.Errorf("success rose with length: %.1f%% (len 4) vs %.1f%% (len 12)",
			rows[0].SuccessRate(), rows[len(rows)-1].SuccessRate())
	}
	if s := RenderTableIII(rows); s == "" {
		t.Fatal("empty render")
	}
	if _, err := Collect(&table3Exp{perParticipant: 0}, RunOpts{Seed: 7}); err == nil {
		t.Fatal("zero trials accepted")
	}
}

// TestTableIVAllCompromised: all eight Table IV apps fall to the attack;
// only Alipay needs the bypass.
func TestTableIVAllCompromised(t *testing.T) {
	rows, err := TableIV(9)
	if err != nil {
		t.Fatalf("TableIV: %v", err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	for _, r := range rows {
		if !r.Compromised {
			t.Errorf("%s not compromised", r.App.Name)
		}
		if r.ExtraEffort != (r.App.Name == "Alipay") {
			t.Errorf("%s ExtraEffort = %v", r.App.Name, r.ExtraEffort)
		}
		if !r.Stealthy {
			t.Errorf("%s attack not stealthy", r.App.Name)
		}
	}
	if s := RenderTableIV(rows); s == "" {
		t.Fatal("empty render")
	}
}

// TestStealthiness reproduces the Section VI-C3 survey: nobody notices an
// abnormality; at most a participant or two on the fastest-cycling phones
// reports lag.
func TestStealthiness(t *testing.T) {
	rep, err := Stealthiness(13)
	if err != nil {
		t.Fatalf("Stealthiness: %v", err)
	}
	if rep.Participants != NumParticipants {
		t.Fatalf("participants = %d", rep.Participants)
	}
	if rep.NoticedAbnormal != 0 {
		t.Errorf("noticed abnormality = %d, paper: 0", rep.NoticedAbnormal)
	}
	if rep.ReportedLag < 1 || rep.ReportedLag > 3 {
		t.Errorf("reported lag = %d, paper: 1", rep.ReportedLag)
	}
	if rep.WorstOutcome != sysui.Lambda1 {
		t.Errorf("worst outcome = %v, want Λ1", rep.WorstOutcome)
	}
	if rep.MinToastAlpha < 0.3 {
		t.Errorf("min toast alpha = %.2f; fake keyboard flickered", rep.MinToastAlpha)
	}
	if s := RenderStealth(rep); s == "" {
		t.Fatal("empty render")
	}
}

// TestDefenseIPCReport: detection fast, termination effective, zero false
// positives, negligible overhead (few analyzed transactions per second).
func TestDefenseIPCReport(t *testing.T) {
	rep, err := DefenseIPC(17, faults.None())
	if err != nil {
		t.Fatalf("DefenseIPC: %v", err)
	}
	if !rep.AttackDetected {
		t.Error("attack not detected")
	}
	if rep.DetectionLatency <= 0 || rep.DetectionLatency > 5*time.Second {
		t.Errorf("detection latency = %v", rep.DetectionLatency)
	}
	if !rep.AttackTerminated {
		t.Error("attack not terminated")
	}
	if rep.BenignFlagged != 0 {
		t.Errorf("benign apps flagged = %d", rep.BenignFlagged)
	}
	if rep.TransactionsObserved == 0 {
		t.Error("no transactions analyzed")
	}
	if s := RenderDefenseIPC(rep); s == "" {
		t.Fatal("empty render")
	}
}

// TestDefenseNotifReport: without the patch the attack wins (Λ1); with
// t = 690 ms it loses (Λ5); honest apps keep a correct alert lifecycle.
func TestDefenseNotifReport(t *testing.T) {
	rep, err := DefenseNotif(19, faults.None())
	if err != nil {
		t.Fatalf("DefenseNotif: %v", err)
	}
	if rep.OutcomeWithout != sysui.Lambda1 {
		t.Errorf("without defense = %v, want Λ1", rep.OutcomeWithout)
	}
	if rep.OutcomeWith != sysui.Lambda5 {
		t.Errorf("with defense = %v, want Λ5", rep.OutcomeWith)
	}
	if rep.HonestOutcome != sysui.Lambda5 || !rep.HonestAlertGone {
		t.Errorf("honest app: outcome %v, alert gone %v", rep.HonestOutcome, rep.HonestAlertGone)
	}
	if s := RenderDefenseNotif(rep); s == "" {
		t.Fatal("empty render")
	}
}

// TestDefenseToastGap: the scheduling defense must force the fake
// keyboard to fully vanish between toasts while the stock system does not.
func TestDefenseToastGap(t *testing.T) {
	rep, err := DefenseToastGap(23)
	if err != nil {
		t.Fatalf("DefenseToastGap: %v", err)
	}
	if rep.MinAlphaWithout < 0.5 {
		t.Errorf("baseline min opacity = %.2f; attack should not flicker", rep.MinAlphaWithout)
	}
	if rep.MinAlphaWith != 0 {
		t.Errorf("defended min opacity = %.2f, want 0 (forced flicker)", rep.MinAlphaWith)
	}
	if s := RenderDefenseToastGap(rep); s == "" {
		t.Fatal("empty render")
	}
}

// TestDrawerCheck: below the bound the drawer holds an entry most of the
// time but it never renders a pixel; past the bound rendered pixels
// appear — the two-layer answer to "can a swipe-down catch the attack?".
func TestDrawerCheck(t *testing.T) {
	rep, err := DrawerCheck("mi8", 29)
	if err != nil {
		t.Fatalf("DrawerCheck: %v", err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rep.Rows))
	}
	for _, row := range rep.Rows[:2] { // below the bound
		if row.EntryPresentPct < 30 {
			t.Errorf("D=%v entry present %.1f%%, want most of the cycle", row.D, row.EntryPresentPct)
		}
		if row.PixelsVisiblePct > 0.5 {
			t.Errorf("D=%v pixels visible %.1f%%, want ≈0 below the bound", row.D, row.PixelsVisiblePct)
		}
	}
	if last := rep.Rows[2]; last.PixelsVisiblePct < 5 { // well past the bound
		t.Errorf("D=%v pixels visible %.1f%%, want clearly visible past the bound", last.D, last.PixelsVisiblePct)
	}
	if s := RenderDrawerCheck(rep); s == "" {
		t.Fatal("empty render")
	}
	if _, err := DrawerCheck("no-phone", 1); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestCorpusStudySmall(t *testing.T) {
	rep, err := CorpusStudy(21, 20000)
	if err != nil {
		t.Fatalf("CorpusStudy: %v", err)
	}
	if rep.Total != 20000 {
		t.Fatalf("Total = %d", rep.Total)
	}
	if rep.OverlayPlusA11y == 0 || rep.AddRemoveWithSAW == 0 || rep.CustomToast == 0 {
		t.Fatalf("empty feature counts: %+v", rep)
	}
}

// TestRunStealTrialFillsVictimWidget: the stealth fill leaves the typed
// password visible in the real widget.
func TestRunStealTrialFillsVictimWidget(t *testing.T) {
	p, ok := device.Seed().ByModel("mi8")
	if !ok {
		t.Fatal("mi8 missing")
	}
	typist, err := input.NewTypist(simrand.New(23))
	if err != nil {
		t.Fatalf("NewTypist: %v", err)
	}
	bofa, _ := apps.ByName("Bank of America")
	trial, err := RunStealTrial(p, typist, bofa, "abc123", 23)
	if err != nil {
		t.Fatalf("RunStealTrial: %v", err)
	}
	if trial.Stolen == "" {
		t.Fatal("nothing stolen")
	}
	if trial.VictimWidget != trial.Stolen {
		t.Fatalf("victim widget %q != stolen %q (fill must track the decoder)", trial.VictimWidget, trial.Stolen)
	}
	if trial.Keystrokes == 0 || trial.DownsCaptured == 0 {
		t.Fatalf("no keystrokes recorded: %+v", trial)
	}
}

// TestRunStealTrialReportsAttackWindow: the trial reports the window the
// stealer actually attacked with. On a generated fleet phone, which has no
// Table II measurement, that is the fingerprinting default, not zero.
func TestRunStealTrialReportsAttackWindow(t *testing.T) {
	fl, err := fleet.Generate(3, 42)
	if err != nil {
		t.Fatalf("fleet.Generate: %v", err)
	}
	p := fl.Entries()[0].Profile
	typist, err := input.NewTypist(simrand.New(31))
	if err != nil {
		t.Fatalf("NewTypist: %v", err)
	}
	bofa, _ := apps.ByName("Bank of America")
	trial, err := RunStealTrial(p, typist, bofa, "abc123", 31)
	if err != nil {
		t.Fatalf("RunStealTrial: %v", err)
	}
	if want := core.SelectAttackWindow(p); trial.D != want || want <= 0 {
		t.Fatalf("reported D = %v, want the stealer's window %v > 0", trial.D, want)
	}
}

package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/input"
	"repro/internal/simrand"
	"repro/internal/sysui"
)

// Perception-model thresholds for the Section VI-C3 stealthiness study.
// A participant reports an abnormality when any part of the alert became
// visible or the fake keyboard visibly flickered; a participant reports
// "lag" when the overlay swap period is so short that the UI thread churn
// drops frames (swaps faster than every ~4 vsync periods).
const (
	// flickerAlphaThreshold is the combined toast opacity below which
	// the hand-off is visible as a flicker.
	flickerAlphaThreshold = 0.3
	// lagSwapPeriod is the swap period below which participants perceive
	// jank from the attack's add/remove churn.
	lagSwapPeriod = 60 * time.Millisecond
)

// StealthReport summarizes the 30-participant stealthiness survey: in the
// paper, nobody noticed anything suspicious and one participant reported
// lag.
type StealthReport struct {
	Participants      int
	NoticedAbnormal   int
	ReportedLag       int
	WorstOutcome      sysui.Outcome
	MinToastAlpha     float64
	PasswordsRecovery float64 // % of participants whose password was stolen exactly
}

// Stealthiness runs the survey: each participant opens the Bank of America
// app and types a given password while the malicious app attacks.
func Stealthiness(seed int64) (StealthReport, error) {
	rep := StealthReport{Participants: NumParticipants, WorstOutcome: sysui.Lambda1, MinToastAlpha: 1}
	root := simrand.New(seed)
	typists, err := input.Participants(root.Derive("typists"), NumParticipants)
	if err != nil {
		return rep, fmt.Errorf("experiment: participants: %w", err)
	}
	bofa, ok := apps.ByName("Bank of America")
	if !ok {
		return rep, fmt.Errorf("experiment: BofA app missing")
	}
	const password = "mY9&pass" // the "given password" of the survey
	recovered := 0
	for i := 0; i < NumParticipants; i++ {
		p := participantDevice(i)
		trial, err := RunStealTrial(p, typists[i], bofa, password, seed+int64(i)*389)
		if err != nil {
			return rep, fmt.Errorf("experiment: stealth trial %d: %w", i, err)
		}
		if trial.WorstOutcome > rep.WorstOutcome {
			rep.WorstOutcome = trial.WorstOutcome
		}
		if trial.MinToastAlpha < rep.MinToastAlpha {
			rep.MinToastAlpha = trial.MinToastAlpha
		}
		noticed := trial.WorstOutcome != sysui.Lambda1 || trial.MinToastAlpha < flickerAlphaThreshold
		if noticed {
			rep.NoticedAbnormal++
		}
		if !noticed && trial.D < lagSwapPeriod {
			rep.ReportedLag++
		}
		if ClassifyTrial(password, trial.Stolen) == ErrorNone {
			recovered++
		}
	}
	rep.PasswordsRecovery = 100 * float64(recovered) / float64(NumParticipants)
	return rep, nil
}

// RenderStealth formats the survey outcome.
func RenderStealth(r StealthReport) string {
	var sb strings.Builder
	sb.WriteString("Stealthiness survey (Section VI-C3)\n")
	fmt.Fprintf(&sb, "  participants:          %d\n", r.Participants)
	fmt.Fprintf(&sb, "  noticed abnormality:   %d   (paper: 0)\n", r.NoticedAbnormal)
	fmt.Fprintf(&sb, "  reported lag:          %d   (paper: 1)\n", r.ReportedLag)
	fmt.Fprintf(&sb, "  worst alert outcome:   %s\n", r.WorstOutcome)
	fmt.Fprintf(&sb, "  min fake-kbd opacity:  %.2f\n", r.MinToastAlpha)
	fmt.Fprintf(&sb, "  passwords recovered:   %.1f%%\n", r.PasswordsRecovery)
	return sb.String()
}

// Package analysis implements the closed-form timing model of the paper's
// Section III-D — Equations (1)–(3) — so it can be validated against the
// discrete-event simulation:
//
//	(1)  Tm = Σᵢ Tmisⁱ + T¹am + T¹as           (total mistouch time)
//	(2)  E(Tm) = (⌈T/D⌉ − 1)·E(Tmis) + E(Tam) + E(Tas)
//	(3)  D ≤ Tn + Tv + Ta                      (alert-suppression bound)
//
// The harness uses these to predict mistouch exposure, expected capture
// rates and the Λ1 upper bound of D analytically, and the tests check the
// simulation reproduces the predictions — the ablation that ties the
// paper's math to its system behaviour.
package analysis

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/device"
)

// ExpectedTmis is E(Tmis) = E(Tam) + E(Tas) − E(Trm), floored at zero.
func ExpectedTmis(p device.Profile) time.Duration {
	return p.ExpectedTmis()
}

// ExpectedMistouchTime evaluates Equation (2): the expected total time
// without a malicious overlay on screen during an attack of total period T
// with attacking window D.
func ExpectedMistouchTime(p device.Profile, total, d time.Duration) (time.Duration, error) {
	if total <= 0 {
		return 0, fmt.Errorf("analysis: non-positive attack period %v", total)
	}
	if d <= 0 {
		return 0, fmt.Errorf("analysis: non-positive attacking window %v", d)
	}
	n := int64(math.Ceil(float64(total) / float64(d)))
	if n < 1 {
		n = 1
	}
	tm := time.Duration(n-1)*ExpectedTmis(p) + p.Tam.MeanDuration() + p.Tas.MeanDuration()
	return tm, nil
}

// AttackPeriod computes the attacker's sizing rule T = S × L: typing speed
// (seconds per key) times password length (Section III-D).
func AttackPeriod(perKey time.Duration, passwordLen int) (time.Duration, error) {
	if perKey <= 0 {
		return 0, fmt.Errorf("analysis: non-positive per-key time %v", perKey)
	}
	if passwordLen <= 0 {
		return 0, fmt.Errorf("analysis: non-positive password length %d", passwordLen)
	}
	return time.Duration(passwordLen) * perKey, nil
}

// ExpectedDownCaptureRate predicts the probability that a touch DOWN lands
// while an overlay is attached: the per-cycle coverage 1 − Tmis/(D+Tmis).
// This drives the password keystroke loss (Table III length errors).
func ExpectedDownCaptureRate(p device.Profile, d time.Duration) (float64, error) {
	if d <= 0 {
		return 0, fmt.Errorf("analysis: non-positive attacking window %v", d)
	}
	tmis := float64(ExpectedTmis(p))
	return 1 - tmis/(float64(d)+tmis), nil
}

// ExpectedGestureCaptureRate predicts the probability that a *complete*
// gesture (DOWN and UP) is captured: the gesture fails if the DOWN lands
// in the mistouch gap or an overlay swap occurs within the press window —
// the Fig. 7 quantity.
func ExpectedGestureCaptureRate(p device.Profile, d, pressWindow time.Duration) (float64, error) {
	if d <= 0 {
		return 0, fmt.Errorf("analysis: non-positive attacking window %v", d)
	}
	if pressWindow < 0 {
		return 0, fmt.Errorf("analysis: negative press window %v", pressWindow)
	}
	tmis := float64(ExpectedTmis(p))
	cycle := float64(d) + tmis
	loss := (tmis + float64(pressWindow)) / cycle
	if loss > 1 {
		loss = 1
	}
	return 1 - loss, nil
}

// UpperBoundD evaluates the instantiated Equation (3): the largest D for
// which the alert-removal notice reaches System UI before the slide-down
// animation renders a visible pixel,
//
//	D ≤ Tam + Tas + ANA + TnShow + Tv + Tfv − Trm − TnRemove,
//
// where Tfv is the first-visible-frame offset for the device's alert view
// height. This matches device.Profile.ExpectedUpperBoundD and exists here
// as the explicit Equation (3) form.
func UpperBoundD(p device.Profile) time.Duration {
	return p.ExpectedUpperBoundD()
}

// MistouchBudget reports how many keystrokes an attack of period T at
// window D is expected to lose, given one keystroke every perKey: the
// expected mistouch time divided by per-key spacing, i.e. the length-error
// exposure of Table III.
func MistouchBudget(p device.Profile, total, d, perKey time.Duration) (float64, error) {
	if perKey <= 0 {
		return 0, fmt.Errorf("analysis: non-positive per-key time %v", perKey)
	}
	tm, err := ExpectedMistouchTime(p, total, d)
	if err != nil {
		return 0, err
	}
	return float64(tm) / float64(perKey), nil
}

// ErrNoProfile reports a missing device profile in lookup helpers.
var ErrNoProfile = errors.New("analysis: unknown device model")

// PredictTableII evaluates Equation (3) for every evaluation device,
// pairing the analytical bound with the paper's measurement.
func PredictTableII() []BoundPrediction {
	profiles := device.Seed().Profiles()
	out := make([]BoundPrediction, 0, len(profiles))
	for _, p := range profiles {
		out = append(out, BoundPrediction{
			Model:      p.Model,
			Version:    p.Version.String(),
			Analytical: UpperBoundD(p),
			Paper:      p.PaperUpperBoundD,
		})
	}
	return out
}

// BoundPrediction pairs Equation (3) with Table II for one device.
type BoundPrediction struct {
	Model      string
	Version    string
	Analytical time.Duration
	Paper      time.Duration
}

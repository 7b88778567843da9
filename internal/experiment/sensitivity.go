package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/keyboard"
	"repro/internal/simrand"
	"repro/internal/stats"
)

// ScatterSensitivityRow is one touch-precision level's inference accuracy.
type ScatterSensitivityRow struct {
	// ScatterPx is the touch-point standard deviation.
	ScatterPx float64
	// WrongKeyPct is the nearest-key misclassification percentage.
	WrongKeyPct float64
}

// ScatterSensitivity sweeps the typist's touch scatter and measures the
// attacker's nearest-key misclassification rate — the sensitivity of
// Table III's wrong-key errors to the σ ≈ 17 px calibration. The keyboard
// grid is ~108 px, so accuracy degrades sharply once σ approaches half a
// key width.
func ScatterSensitivity(seed int64) ([]ScatterSensitivityRow, error) {
	kb, err := keyboard.New(geom.RectWH(0, 1200, 1080, 720))
	if err != nil {
		return nil, fmt.Errorf("experiment: keyboard: %w", err)
	}
	rng := simrand.New(seed).Derive("scatter")
	keys := kb.Keys(keyboard.BoardLower)
	const drawsPerKey = 300
	var out []ScatterSensitivityRow
	for _, sigma := range []float64{8, 12, 17, 24, 32, 45} {
		wrong, total := 0, 0
		for _, key := range keys {
			if key.Kind != keyboard.KindChar {
				continue
			}
			for i := 0; i < drawsPerKey; i++ {
				p := geom.Pt(
					rng.Normal(key.Center().X, sigma),
					rng.Normal(key.Center().Y, sigma),
				)
				if kb.NearestKey(keyboard.BoardLower, p).Label != key.Label {
					wrong++
				}
				total++
			}
		}
		out = append(out, ScatterSensitivityRow{
			ScatterPx:   sigma,
			WrongKeyPct: stats.Ratio(wrong, total),
		})
	}
	return out, nil
}

// RenderScatterSensitivity formats the sweep.
func RenderScatterSensitivity(rows []ScatterSensitivityRow) string {
	var sb strings.Builder
	sb.WriteString("Sensitivity — nearest-key inference vs touch scatter (108 px key grid)\n")
	for _, r := range rows {
		note := ""
		if r.ScatterPx == 17 {
			note = "   <- calibrated population mean"
		}
		fmt.Fprintf(&sb, "  σ = %4.0f px → wrong-key rate %5.2f%%%s\n", r.ScatterPx, r.WrongKeyPct, note)
	}
	return sb.String()
}

// Fig7ModelRow pairs the analytic per-D capture prediction (Equation-(2)
// style coverage model over the device fleet) with nothing else — the
// model curve to overlay on the measured Fig. 7.
type Fig7ModelRow struct {
	D time.Duration
	// PredictedMean is the fleet-mean analytic gesture-capture rate.
	PredictedMean float64
}

// Fig7Model evaluates the closed-form capture model for every Fig. 7 D
// over the 30-device fleet with the calibrated ~14 ms press window.
func Fig7Model() ([]Fig7ModelRow, error) {
	const pressWindow = 14 * time.Millisecond
	profiles := device.Seed().Profiles()
	out := make([]Fig7ModelRow, 0, len(CaptureDs()))
	for _, d := range CaptureDs() {
		sum := 0.0
		for _, p := range profiles {
			r, err := analysis.ExpectedGestureCaptureRate(p, d, pressWindow)
			if err != nil {
				// CaptureDs are all positive, so this needs a broken
				// profile to fire.
				return nil, fmt.Errorf("experiment: fig7 model: %w", err)
			}
			sum += 100 * r
		}
		out = append(out, Fig7ModelRow{D: d, PredictedMean: sum / float64(len(profiles))})
	}
	return out, nil
}

// RenderFig7Model prints the model curve next to the simulated means and
// the paper's means — the three-way comparison.
func RenderFig7Model(model []Fig7ModelRow, measured []Fig7Row) string {
	paperMeans := []float64{61.0, 79.8, 86.7, 89.0, 91.0, 92.8, 92.8}
	var sb strings.Builder
	sb.WriteString("Fig. 7 three-way comparison — analytic model vs simulation vs paper\n")
	sb.WriteString("   D      model   simulated   paper\n")
	for i, m := range model {
		sim := "    -"
		if i < len(measured) {
			sim = fmt.Sprintf("%8.1f", measured[i].Box.Mean)
		}
		paper := "    -"
		if i < len(paperMeans) {
			paper = fmt.Sprintf("%6.1f", paperMeans[i])
		}
		fmt.Fprintf(&sb, "  %3dms  %6.1f  %s  %s\n", m.D/time.Millisecond, m.PredictedMean, sim, paper)
	}
	return sb.String()
}

package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/device"
	"repro/internal/sysserver"
	"repro/internal/sysui"
)

// TableIIRow is one device's measured upper boundary of D for the Λ1
// outcome next to the paper's Table II measurement.
type TableIIRow struct {
	Manufacturer string
	Model        string
	Version      string
	// PaperD is the Table II value the profile was calibrated against.
	PaperD time.Duration
	// MeasuredD is the bound measured by sweeping the simulated attack.
	MeasuredD time.Duration
}

// measureUpperBoundD finds the largest D (5 ms resolution, below 800 ms)
// for which repeated attack trials stay at Λ1, the way the paper's
// authors probed each phone with increasing D until the alert became
// visible. Extra assembly options (fault plane) pass through to every
// trial stack. The predicate is monotone up to per-trial jitter, which
// the double-trial vote smooths.
func measureUpperBoundD(p device.Profile, seed int64, opts ...sysserver.Option) (time.Duration, error) {
	return largestPassingD(5*time.Millisecond, 800*time.Millisecond, func(d time.Duration) (bool, error) {
		for r := 0; r < 2; r++ {
			o, err := OutcomeForD(p, d, 4*time.Second, seed+int64(r)*101, opts...)
			if err != nil || o != sysui.Lambda1 {
				return false, err
			}
		}
		return true, nil
	})
}

// table2Exp regenerates Table II: the upper boundary of D on each of the
// paper's 30 phones, one trial per device.
type table2Exp struct {
	profiles []device.Profile
}

func (e *table2Exp) Name() string   { return "table2" }
func (e *table2Exp) Params() string { return "" }

func (e *table2Exp) Trials(seed int64) ([]Trial, error) {
	e.profiles = device.Seed().Profiles()
	profiles := e.profiles
	trials := make([]Trial, 0, len(profiles))
	for i, p := range profiles {
		i, p := i, p
		trials = append(trials, NewTrial(
			fmt.Sprintf("table2 seed=%d device=%s", seed, p.Name()),
			fmt.Sprintf("table II bound for %s", p.Name()),
			func() (time.Duration, error) {
				d, err := measureUpperBoundD(p, seed+int64(i)*1009)
				if err != nil {
					return 0, fmt.Errorf("experiment: table II for %s: %w", p.Name(), err)
				}
				return d, nil
			}))
	}
	return trials, nil
}

// rows pairs the device catalog with the measured bounds.
func (e *table2Exp) rows(results []any) []TableIIRow {
	out := make([]TableIIRow, 0, len(e.profiles))
	for i, p := range e.profiles {
		out = append(out, TableIIRow{
			Manufacturer: p.Manufacturer,
			Model:        p.Model,
			Version:      p.Version.String(),
			PaperD:       p.PaperUpperBoundD,
			MeasuredD:    Res[time.Duration](results, i),
		})
	}
	return out
}

func (e *table2Exp) Render(results []any) (Output, error) {
	return Output{Text: RenderTableII(e.rows(results))}, nil
}

// RenderTableII formats the table next to the paper's values.
func RenderTableII(rows []TableIIRow) string {
	var sb strings.Builder
	sb.WriteString("Table II — upper boundary of D (ms) for Λ1\n")
	sb.WriteString("  model        ver   paper   measured\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-12s %-4s  %5d   %5d\n",
			r.Model, r.Version, r.PaperD/time.Millisecond, r.MeasuredD/time.Millisecond)
	}
	return sb.String()
}

// RenderDeviceCatalog prints the Table I device fleet with each profile's
// screen, Android version, analytical Λ1 bound (Equation (3) form) and
// expected mistouch window — the calibration view of the 30 phones.
func RenderDeviceCatalog() string {
	var sb strings.Builder
	sb.WriteString("Device catalog — Tables I/II with calibrated timing model\n")
	sb.WriteString("  manufacturer  model        ver   screen      paper-D  analytic-D  E[Tmis]\n")
	for _, p := range device.Seed().Profiles() {
		fmt.Fprintf(&sb, "  %-12s  %-12s %-4s  %4dx%-5d  %5dms  %7.0fms  %5.2fms\n",
			p.Manufacturer, p.Model, p.Version,
			p.ScreenW, p.ScreenH,
			p.PaperUpperBoundD/time.Millisecond,
			float64(p.ExpectedUpperBoundD())/float64(time.Millisecond),
			float64(p.ExpectedTmis())/float64(time.Millisecond))
	}
	return sb.String()
}

// LoadImpactRow reports the measured D bound under background load.
type LoadImpactRow struct {
	BackgroundApps int
	MeasuredD      time.Duration
}

// loadExp regenerates the Section VI-B load experiment: the upper boundary
// of D on one device with 0, 3 and 5 background apps. The paper finds the
// bounds "almost the same".
type loadExp struct {
	model string
	loads []int
}

func (e *loadExp) Name() string   { return "load" }
func (e *loadExp) Params() string { return "model=" + e.model }

func (e *loadExp) Trials(seed int64) ([]Trial, error) {
	p, err := seedDevice(e.model)
	if err != nil {
		return nil, err
	}
	e.loads = []int{0, 3, 5}
	trials := make([]Trial, 0, len(e.loads))
	for _, n := range e.loads {
		n := n
		trials = append(trials, NewTrial(
			fmt.Sprintf("load model=%s seed=%d apps=%d", e.model, seed, n),
			fmt.Sprintf("load bound with %d background apps", n),
			func() (time.Duration, error) {
				return measureUpperBoundD(p.WithLoad(n), seed+int64(n)*37)
			}))
	}
	return trials, nil
}

// rows pairs the load levels with the measured bounds.
func (e *loadExp) rows(results []any) []LoadImpactRow {
	out := make([]LoadImpactRow, len(e.loads))
	for i, n := range e.loads {
		out[i] = LoadImpactRow{BackgroundApps: n, MeasuredD: Res[time.Duration](results, i)}
	}
	return out
}

func (e *loadExp) Render(results []any) (Output, error) {
	return Output{Text: RenderLoadImpact(e.model, e.rows(results))}, nil
}

// RenderLoadImpact formats the load rows.
func RenderLoadImpact(model string, rows []LoadImpactRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Load impact on upper boundary of D (%s)\n", model)
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %d background apps → %d ms\n", r.BackgroundApps, r.MeasuredD/time.Millisecond)
	}
	return sb.String()
}

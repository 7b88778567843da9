package experiment

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/device"
	"repro/internal/input"
	"repro/internal/simrand"
	"repro/internal/sysui"
)

// TableIVRow is one app's attackability verdict.
type TableIVRow struct {
	// App is the victim.
	App apps.VictimApp
	// Compromised reports whether the stolen password matched.
	Compromised bool
	// ExtraEffort reports whether the attack needed the accessibility
	// bypass (the "*" of Table IV; true only for Alipay).
	ExtraEffort bool
	// Stealthy reports whether no alert became visible (Λ1).
	Stealthy bool
}

// TableIV regenerates Table IV: the password-stealing attack against the
// eight real-world apps, on the paper's demo phone (Pixel 2).
func TableIV(seed int64) ([]TableIVRow, error) {
	p := device.Seed().Default()
	typist, err := input.NewTypist(simrand.New(seed).Derive("tab4-typist"))
	if err != nil {
		return nil, fmt.Errorf("experiment: typist: %w", err)
	}
	const password = "tk&%48GH" // the paper's demo password
	// Table IV reports whether each app *can* be compromised; a single
	// human-scattered trial can fail on a fat-finger, so each app gets a
	// few attempts, as the paper's testing did.
	const attempts = 3
	out := make([]TableIVRow, 0, 8)
	for i, app := range apps.Catalog() {
		row := TableIVRow{App: app, ExtraEffort: app.DisablesPasswordA11y, Stealthy: true}
		for a := 0; a < attempts && !row.Compromised; a++ {
			trial, err := RunStealTrial(p, typist, app, password, seed+int64(i)*773+int64(a)*13)
			if err != nil {
				return nil, fmt.Errorf("experiment: table IV trial for %s: %w", app.Name, err)
			}
			if ClassifyTrial(password, trial.Stolen) == ErrorNone {
				row.Compromised = true
			}
			if trial.WorstOutcome != sysui.Lambda1 {
				row.Stealthy = false
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// RenderTableIV formats the verdicts in the paper's notation: "√" for
// compromised with no change, "*" when extra effort was needed.
func RenderTableIV(rows []TableIVRow) string {
	var sb strings.Builder
	sb.WriteString("Table IV — apps under testing\n")
	sb.WriteString("  app               version          attack  stealthy\n")
	for _, r := range rows {
		mark := "x"
		if r.Compromised {
			mark = "√"
			if r.ExtraEffort {
				mark = "*"
			}
		}
		stealth := "no"
		if r.Stealthy {
			stealth = "yes"
		}
		fmt.Fprintf(&sb, "  %-17s %-15s  %-6s  %s\n", r.App.Name, r.App.Version, mark, stealth)
	}
	sb.WriteString("  (√: compromised with no change; *: compromised with extra effort)\n")
	return sb.String()
}

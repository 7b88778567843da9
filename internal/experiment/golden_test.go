package experiment

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/appstore"
	"repro/internal/faults"
)

// update regenerates the golden reports instead of comparing against them:
//
//	go test ./internal/experiment -run TestGolden -update
var update = flag.Bool("update", false, "rewrite testdata/golden/*.txt from the current code")

// goldenSeeds pins the reference runs: the original seed-42 reports plus a
// second seed so a seed-dependent bug (a hard-coded 42 anywhere in the
// pipeline) cannot hide behind one golden. Changing experiment logic
// intentionally requires regenerating with -update and reviewing the diff.
func goldenSeeds() []struct {
	seed   int64
	suffix string
} {
	return []struct {
		seed   int64
		suffix string
	}{
		{42, ""},
		{7, "-seed7"},
	}
}

// goldenWorkers runs the golden sweeps on a worker pool: the goldens were
// recorded from the old sequential runners, so passing them from a
// parallel run is itself a determinism check.
const goldenWorkers = 8

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("mkdir golden dir: %v", err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create it): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s output drifted from golden %s\n-- got --\n%s\n-- want --\n%s\n(run with -update if the change is intentional)",
			name, path, got, string(want))
	}
}

// TestGoldenFig6 locks the Fig. 6 sweep report at the reference seeds.
func TestGoldenFig6(t *testing.T) {
	for _, c := range goldenSeeds() {
		e := &fig6Exp{model: "mi8"}
		results, err := Collect(e, RunOpts{Seed: c.seed, Workers: goldenWorkers})
		if err != nil {
			t.Fatalf("fig6 (seed %d): %v", c.seed, err)
		}
		checkGolden(t, "fig6"+c.suffix, RenderFig6("mi8", e.points(results)))
	}
}

// TestGoldenTableII locks the Table II per-device bound report.
func TestGoldenTableII(t *testing.T) {
	for _, c := range goldenSeeds() {
		e := &table2Exp{}
		results, err := Collect(e, RunOpts{Seed: c.seed, Workers: goldenWorkers})
		if err != nil {
			t.Fatalf("table2 (seed %d): %v", c.seed, err)
		}
		checkGolden(t, "table2"+c.suffix, RenderTableII(e.rows(results)))
	}
}

// TestGoldenTableIII locks the Table III stealing report (one password per
// participant to keep the suite fast).
func TestGoldenTableIII(t *testing.T) {
	for _, c := range goldenSeeds() {
		e := &table3Exp{perParticipant: 1}
		results, err := Collect(e, RunOpts{Seed: c.seed, Workers: goldenWorkers})
		if err != nil {
			t.Fatalf("table3 (seed %d): %v", c.seed, err)
		}
		checkGolden(t, "table3"+c.suffix, RenderTableIII(e.rows(results)))
	}
}

// TestGoldenFig7 locks the capture-rate box plots.
func TestGoldenFig7(t *testing.T) {
	for _, c := range goldenSeeds() {
		e := &captureExp{}
		results, err := Collect(e, RunOpts{Seed: c.seed, Workers: goldenWorkers})
		if err != nil {
			t.Fatalf("capture study (seed %d): %v", c.seed, err)
		}
		rows, err := e.study(results).Fig7()
		if err != nil {
			t.Fatalf("fig7 (seed %d): %v", c.seed, err)
		}
		checkGolden(t, "fig7"+c.suffix, RenderFig7(rows))
	}
}

// TestGoldenPrecision locks the precision-tier study at the reference
// seeds and asserts its headline on top of the byte-identity check:
// Tier1 never loses precision to Tier0, and Tier2 strictly improves
// precision on every capability without reducing recall.
func TestGoldenPrecision(t *testing.T) {
	for _, c := range goldenSeeds() {
		e := &precisionExp{corpusN: 20000}
		results, err := Collect(e, RunOpts{Seed: c.seed, Workers: goldenWorkers})
		if err != nil {
			t.Fatalf("precision (seed %d): %v", c.seed, err)
		}
		reps := e.reports(results)
		checkGolden(t, "precision"+c.suffix, RenderPrecision(c.seed, e.corpusN, reps))

		base := CapabilityStats(reps[0])
		mid := CapabilityStats(reps[1])
		top := CapabilityStats(reps[len(reps)-1])
		for name, b := range base {
			if m := mid[name]; m.Precision() < b.Precision() {
				t.Errorf("seed %d: %s: tier1 precision %.4f below tier0 %.4f", c.seed, name, m.Precision(), b.Precision())
			}
			tp := top[name]
			if tp.Precision() <= b.Precision() {
				t.Errorf("seed %d: %s: tier2 precision %.4f does not strictly improve on tier0 %.4f",
					c.seed, name, tp.Precision(), b.Precision())
			}
			if tp.Recall() < b.Recall() {
				t.Errorf("seed %d: %s: tier2 recall %.4f below tier0 %.4f", c.seed, name, tp.Recall(), b.Recall())
			}
		}
	}
}

// TestGoldenDegradation locks the full degradation sweep — including the
// Table III slice, the defense verdicts and the invariant first-break
// table — at the reference seeds and profile. In particular this pins the
// zero-intensity row, which must track the unfaulted experiments exactly.
func TestGoldenDegradation(t *testing.T) {
	for _, c := range goldenSeeds() {
		e := &degradationExp{profileName: "chaos"}
		results, err := Collect(e, RunOpts{Seed: c.seed, Workers: goldenWorkers})
		if err != nil {
			t.Fatalf("degradation (seed %d): %v", c.seed, err)
		}
		checkGolden(t, "degradation"+c.suffix, RenderDegradation(e.report(results)))
	}
}

// animbenchDefaults is the Config cmd/animbench builds from its flag
// defaults, so the registry goldens pin exactly what the CLI prints.
func animbenchDefaults() Config {
	return Config{
		Model:        "mi8",
		Trials:       10,
		CorpusN:      appstore.PaperCorpusSize,
		FaultProfile: "chaos",
		FleetSize:    fleetDefaultSize,
		FleetSeed:    fleetDefaultSeed,
	}
}

// registryCase is one TestGoldenRegistry entry: the golden's file stem,
// the registered experiment, and overrides of the animbench defaults (a
// fault profile, or a corpus size small enough for the suite).
type registryCase struct {
	golden, name, profile string
	corpusN               int
}

// TestGoldenRegistry locks, through the registry and the generic driver
// (New + Run), every suite experiment that has no dedicated golden above,
// the device catalog, the corpus study at 20,000 apps, and the
// degradation sweep at each fault profile besides chaos
// (TestGoldenDegradation pins chaos).
func TestGoldenRegistry(t *testing.T) {
	cases := []registryCase{
		{golden: "fig8", name: "fig8"},
		{golden: "load", name: "load"},
		{golden: "table4", name: "table4"},
		{golden: "stealth", name: "stealth"},
		{golden: "corpus", name: "corpus", corpusN: 20000},
		{golden: "defense-ipc", name: "defense-ipc"},
		{golden: "defense-notif", name: "defense-notif"},
		{golden: "defense-toastgap", name: "defense-toastgap"},
		{golden: "drawer", name: "drawer"},
		{golden: "sensitivity", name: "sensitivity"},
		{golden: "ablations", name: "ablations"},
		{golden: "devices", name: "devices"},
	}
	for _, prof := range faults.Names() {
		if prof != "none" && prof != "chaos" {
			cases = append(cases, registryCase{golden: "degradation-" + prof, name: "degradation", profile: prof})
		}
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.golden, func(t *testing.T) {
			cfg := animbenchDefaults()
			if tc.profile != "" {
				cfg.FaultProfile = tc.profile
			}
			if tc.corpusN != 0 {
				cfg.CorpusN = tc.corpusN
			}
			for _, c := range goldenSeeds() {
				exp, err := New(tc.name, cfg)
				if err != nil {
					t.Fatalf("New(%s): %v", tc.name, err)
				}
				out, err := Run(exp, RunOpts{Seed: c.seed, Workers: goldenWorkers})
				if err != nil {
					t.Fatalf("%s (seed %d): %v", tc.golden, c.seed, err)
				}
				checkGolden(t, tc.golden+c.suffix, out.Text)
			}
		})
	}
}

package appstore

import (
	"testing"

	"repro/internal/simrand"
	"repro/internal/staticanalysis"
)

// The tier-separating decoy families. Each test forces one family and
// checks the designed separation: which tiers are fooled, which are not,
// always against the generator's truth bit.

// TestSplitReflectDecoy: capable app whose reflective target names are
// concatenated from fragments — a false negative below Tier2.
func TestSplitReflectDecoy(t *testing.T) {
	rates := forceRates(func(r *Rates) {
		r.AddRemoveGivenSAW = 1
		r.SplitReflectGivenCapable = 1
	})
	gen, err := NewGenerator(simrand.New(21), rates)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	for i := 0; i < 20; i++ {
		apk := gen.Next()
		if !apk.Truth.Overlay {
			t.Fatal("split-reflect app not labeled capable")
		}
		s0 := ScanAppTier(apk, staticanalysis.Tier0)
		if s0.Grep.CallsAddView || s0.Grep.CallsRemoveView {
			t.Fatal("split dispatch leaked into the ref table")
		}
		if s0.Static.DrawAndDestroy {
			t.Fatal("Tier0 resolved register-split reflection")
		}
		if ScanAppTier(apk, staticanalysis.Tier1).Static.DrawAndDestroy {
			t.Fatal("Tier1 resolved register-split reflection")
		}
		if !ScanAppTier(apk, staticanalysis.Tier2).Static.DrawAndDestroy {
			t.Fatal("Tier2 missed register-split reflection")
		}
	}
}

// TestCrossReflectDecoy: capable app fetching its reflective target names
// from constant-returning helper methods in another class.
func TestCrossReflectDecoy(t *testing.T) {
	rates := forceRates(func(r *Rates) {
		r.AddRemoveGivenSAW = 1
		r.CrossReflectGivenCapable = 1
	})
	gen, err := NewGenerator(simrand.New(22), rates)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	for i := 0; i < 20; i++ {
		apk := gen.Next()
		if !apk.Truth.Overlay {
			t.Fatal("cross-reflect app not labeled capable")
		}
		if ScanAppTier(apk, staticanalysis.Tier0).Static.DrawAndDestroy {
			t.Fatal("Tier0 resolved cross-method reflection")
		}
		if !ScanAppTier(apk, staticanalysis.Tier2).Static.DrawAndDestroy {
			t.Fatal("Tier2 missed cross-method reflection")
		}
	}
}

// TestFlagOverlayDecoy: benign app whose only overlay calls hide behind a
// BuildConfig flag the app itself pins false — a false positive below
// Tier2.
func TestFlagOverlayDecoy(t *testing.T) {
	rates := forceRates(func(r *Rates) { r.FlagOverlayGivenSAW = 1 })
	gen, err := NewGenerator(simrand.New(23), rates)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	for i := 0; i < 20; i++ {
		apk := gen.Next()
		if apk.Truth.Overlay {
			t.Fatal("flag decoy labeled capable")
		}
		if !ScanAppTier(apk, staticanalysis.Tier0).Static.DrawAndDestroy {
			t.Fatal("Tier0 should reach the flag-guarded sinks (decoy not planted?)")
		}
		if !ScanAppTier(apk, staticanalysis.Tier1).Static.DrawAndDestroy {
			t.Fatal("Tier1 has no flag table and should stay fooled")
		}
		if ScanAppTier(apk, staticanalysis.Tier2).Static.DrawAndDestroy {
			t.Fatal("Tier2 reached sinks behind a constant-false flag")
		}
	}
}

// TestFlagToastDecoy: a customized-toast app whose loop re-registration
// is flag-dead — toast-replace false positive below Tier2.
func TestFlagToastDecoy(t *testing.T) {
	rates := forceRates(func(r *Rates) {
		r.CustomToast = 1
		r.FlagToastGivenToast = 1
	})
	gen, err := NewGenerator(simrand.New(24), rates)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	for i := 0; i < 20; i++ {
		apk := gen.Next()
		if apk.Truth.ToastReplace {
			t.Fatal("flag-toast decoy labeled replace-capable")
		}
		if !ScanAppTier(apk, staticanalysis.Tier0).Static.ToastReplace {
			t.Fatal("Tier0 should see the flag-guarded re-registration")
		}
		if ScanAppTier(apk, staticanalysis.Tier2).Static.ToastReplace {
			t.Fatal("Tier2 kept a flag-dead toast re-registration")
		}
	}
}

// TestFlagA11yDecoy: an a11y service whose event handler's only path to
// the overlay code is flag-dead — a11y-timing false positive below Tier2.
func TestFlagA11yDecoy(t *testing.T) {
	rates := forceRates(func(r *Rates) {
		r.A11yGivenSAW = 1
		r.AddRemoveGivenSAW = 1
		r.FlagA11yGivenBenign = 1
	})
	gen, err := NewGenerator(simrand.New(25), rates)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	for i := 0; i < 20; i++ {
		apk := gen.Next()
		if apk.Truth.A11yTiming {
			t.Fatal("flag-a11y decoy labeled attack-wired")
		}
		if !ScanAppTier(apk, staticanalysis.Tier0).Static.A11yTiming {
			t.Fatal("Tier0 should reach the overlay code through the flag-dead handler edge")
		}
		if ScanAppTier(apk, staticanalysis.Tier2).Static.A11yTiming {
			t.Fatal("Tier2 kept the flag-dead handler edge")
		}
	}
}

func TestScanRangeValidation(t *testing.T) {
	if _, err := ScanRange(1, -1, 10, PaperRates(), staticanalysis.Tier0); err == nil {
		t.Fatal("negative start accepted")
	}
	if _, err := ScanRange(1, 0, 0, PaperRates(), staticanalysis.Tier0); err == nil {
		t.Fatal("zero count accepted")
	}
	bad := PaperRates()
	bad.SAW = 2
	if _, err := ScanRange(1, 0, 10, bad, staticanalysis.Tier0); err == nil {
		t.Fatal("invalid rates accepted")
	}
}

// TestPrecisionRatesTierMonotonic is the study's contract at corpus
// scale: on the obfuscated corpus every capability's precision strictly
// improves from Tier0 to Tier2 with recall never lower, the guarded
// evidence disappears and the reflective evidence grows.
func TestPrecisionRatesTierMonotonic(t *testing.T) {
	const n = 2 * StudyChunkSize
	reps := make([]Report, 0, 3)
	for _, tier := range staticanalysis.Tiers() {
		rep, err := ScanRange(51, 0, n, PrecisionRates(), tier)
		if err != nil {
			t.Fatalf("ScanRange %v: %v", tier, err)
		}
		reps = append(reps, rep)
	}
	t0, t2 := reps[0], reps[2]
	for _, c := range []struct {
		name   string
		s0, s2 DetectorStats
	}{
		{"overlay", t0.StaticOverlay, t2.StaticOverlay},
		{"toast-replace", t0.StaticToastReplace, t2.StaticToastReplace},
		{"a11y-timing", t0.StaticA11y, t2.StaticA11y},
	} {
		if c.s2.Precision() <= c.s0.Precision() {
			t.Errorf("%s: tier2 precision %.4f does not strictly beat tier0 %.4f (FP %d vs %d)",
				c.name, c.s2.Precision(), c.s0.Precision(), c.s2.FP, c.s0.FP)
		}
		if c.s2.Recall() < c.s0.Recall() {
			t.Errorf("%s: tier2 recall %.4f below tier0 %.4f", c.name, c.s2.Recall(), c.s0.Recall())
		}
	}
	if t2.GuardedSinkSites != 0 {
		t.Errorf("tier2 kept %d guarded evidence sites", t2.GuardedSinkSites)
	}
	if t2.ReflectiveSinkSites <= t0.ReflectiveSinkSites {
		t.Errorf("tier2 reflective evidence %d did not grow past tier0's %d",
			t2.ReflectiveSinkSites, t0.ReflectiveSinkSites)
	}
	// Tier1 sits between: it may only remove always-false-guarded sites.
	if reps[1].GuardedSinkSites > t0.GuardedSinkSites {
		t.Errorf("tier1 guarded evidence grew: %d > %d", reps[1].GuardedSinkSites, t0.GuardedSinkSites)
	}
}

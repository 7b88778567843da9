package experiment

import (
	"fmt"
	"strings"

	"repro/internal/appstore"
	"repro/internal/staticanalysis"
)

// precisionExp is the ground-truth precision/recall study of the static
// pass's precision tiers. It scans one obfuscated corpus — PaperRates
// plus the appstore decoy families (split/cross-method reflective
// overlays, BuildConfig-flag dead decoys) — at every tier and reports,
// per capability, the confusion matrix against the generator's truth
// bits: what dead-branch pruning (Tier1) and interprocedural constant
// propagation (Tier2) each buy in precision, and what reflective
// recovery buys in recall. Each (tier, chunk) pair is one scanTrials
// trial, so the sweep shards across the driver's worker pool and renders
// byte-identically at any worker count.
type precisionExp struct {
	corpusN int
	seed    int64
}

func (e *precisionExp) Name() string   { return "precision" }
func (e *precisionExp) Params() string { return fmt.Sprintf("corpus=%d", e.corpusN) }

func (e *precisionExp) Trials(seed int64) ([]Trial, error) {
	if e.corpusN <= 0 {
		return nil, fmt.Errorf("experiment: precision needs a positive corpus size, got %d", e.corpusN)
	}
	e.seed = seed
	var trials []Trial
	for _, tier := range staticanalysis.Tiers() {
		trials = append(trials, scanTrials("precision", seed, e.corpusN, "precision", appstore.PrecisionRates(), tier)...)
	}
	return trials, nil
}

// reports reassembles one merged Report per tier from the per-chunk
// results, in tier order.
func (e *precisionExp) reports(results []any) []appstore.Report {
	nc := len(results) / len(staticanalysis.Tiers())
	out := make([]appstore.Report, 0, len(staticanalysis.Tiers()))
	for ti := range staticanalysis.Tiers() {
		out = append(out, mergeReports(results[ti*nc:(ti+1)*nc]))
	}
	return out
}

// precisionRow is one capability line of the per-tier table.
type precisionRow struct {
	name     string
	detected func(appstore.Report) int
	truth    func(appstore.Report) int
	stats    func(appstore.Report) appstore.DetectorStats
}

// precisionCapabilities are the three capability detectors the tiers are
// judged on; the precision golden's tier-monotonicity check reads the
// same selection.
func precisionCapabilities() []precisionRow {
	return []precisionRow{
		{"overlay (draw-and-destroy)",
			func(r appstore.Report) int { return r.AddRemoveWithSAW },
			func(r appstore.Report) int { return r.TruthAddRemoveWithSAW },
			func(r appstore.Report) appstore.DetectorStats { return r.StaticOverlay }},
		{"toast-replace",
			func(r appstore.Report) int { return r.ToastReplaceCapable },
			func(r appstore.Report) int { return r.TruthToastReplace },
			func(r appstore.Report) appstore.DetectorStats { return r.StaticToastReplace }},
		{"a11y-timing",
			func(r appstore.Report) int { return r.A11yTimingCapable },
			func(r appstore.Report) int { return r.TruthA11yTiming },
			func(r appstore.Report) appstore.DetectorStats { return r.StaticA11y }},
	}
}

// RenderPrecision formats the tier study: one block per tier with the
// sink-evidence mix and the per-capability confusion table, then a
// headline delta summary from the baseline tier to the last.
func RenderPrecision(seed int64, n int, reps []appstore.Report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Precision tiers — static capability detection vs ground truth (obfuscated corpus, n=%d, seed %d)\n", n, seed)
	rows := append(precisionCapabilities(), precisionRow{
		"customized-toast (feature)",
		func(r appstore.Report) int { return r.CustomToast },
		func(r appstore.Report) int { return r.TruthCustomToast },
		func(r appstore.Report) appstore.DetectorStats { return r.StaticToast }})
	for _, rep := range reps {
		fmt.Fprintf(&sb, "%s — %s\n", rep.Tier, rep.Tier.Describe())
		fmt.Fprintf(&sb, "  sink evidence: %d call sites (%d guarded, %d reflective)\n",
			rep.SinkSites, rep.GuardedSinkSites, rep.ReflectiveSinkSites)
		fmt.Fprintf(&sb, "  %-27s %8s %6s %5s %5s %5s %10s %7s %6s\n",
			"capability", "detected", "truth", "TP", "FP", "FN", "precision", "recall", "F1")
		for _, row := range rows {
			st := row.stats(rep)
			fmt.Fprintf(&sb, "  %-27s %8d %6d %5d %5d %5d %9.2f%% %6.2f%% %6.3f\n",
				row.name, row.detected(rep), row.truth(rep), st.TP, st.FP, st.FN,
				100*st.Precision(), 100*st.Recall(), st.F1())
		}
	}
	if len(reps) >= 2 {
		base, top := reps[0], reps[len(reps)-1]
		fmt.Fprintf(&sb, "delta %s → %s:\n", base.Tier, top.Tier)
		for _, row := range precisionCapabilities() {
			b, t := row.stats(base), row.stats(top)
			fmt.Fprintf(&sb, "  %-27s precision %+6.2fpp (FP %d → %d), recall %+6.2fpp (FN %d → %d)\n",
				row.name, 100*(t.Precision()-b.Precision()), b.FP, t.FP,
				100*(t.Recall()-b.Recall()), b.FN, t.FN)
		}
	}
	return sb.String()
}

func (e *precisionExp) Render(results []any) (Output, error) {
	return Output{Text: RenderPrecision(e.seed, e.corpusN, e.reports(results))}, nil
}

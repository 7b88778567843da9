package experiment

import (
	"fmt"

	"repro/internal/appstore"
	"repro/internal/staticanalysis"
)

// corpusExp is the §VI-C2 app-market prevalence study: the seeded
// synthetic corpus of n apps scanned at one static-analysis tier, one
// trial per StudyChunkSize chunk, so the scan shards across the driver's
// worker pool and resumes chunk by chunk from a journal. Render merges
// the chunk reports in chunk order, which makes the report identical for
// any worker count and any interruption point.
type corpusExp struct {
	n    int
	tier staticanalysis.Tier
}

func (e *corpusExp) Name() string   { return "corpus" }
func (e *corpusExp) Params() string { return fmt.Sprintf("corpus=%d tier=%s", e.n, e.tier) }

func (e *corpusExp) Trials(seed int64) ([]Trial, error) {
	if e.n <= 0 {
		return nil, fmt.Errorf("experiment: corpus needs a positive corpus size, got %d", e.n)
	}
	return scanTrials("corpus", seed, e.n, "paper", appstore.PaperRates(), e.tier), nil
}

func (e *corpusExp) Render(results []any) (Output, error) {
	return Output{Text: fmt.Sprintf("§VI-C2 — app-market prevalence study\n%v\n", mergeReports(results))}, nil
}

// scanTrials splits a scan of apps [0, n) of the corpus seeded by seed
// into one appstore.ScanRange trial per StudyChunkSize chunk, the last
// one partial. Chunk-aligned ranges regenerate no other trial's prefix.
// Each trial's Inputs names the study, the rates and the tier, so two
// studies never replay each other's journal records.
func scanTrials(study string, seed int64, n int, ratesName string, rates appstore.Rates, tier staticanalysis.Tier) []Trial {
	var trials []Trial
	for c := 0; c*appstore.StudyChunkSize < n; c++ {
		start := c * appstore.StudyChunkSize
		size := min(appstore.StudyChunkSize, n-start)
		trials = append(trials, NewTrial(
			fmt.Sprintf("%s seed=%d n=%d rates=%s tier=%s chunk=%d", study, seed, n, ratesName, tier, c),
			fmt.Sprintf("%s %s chunk %d", study, tier, c),
			func() (appstore.Report, error) { return appstore.ScanRange(seed, start, size, rates, tier) }))
	}
	return trials
}

// mergeReports folds scanTrials results into one report, in chunk order.
func mergeReports(results []any) appstore.Report {
	var rep appstore.Report
	for i := range results {
		rep.Merge(Res[appstore.Report](results, i))
	}
	return rep
}

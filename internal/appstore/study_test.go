package appstore_test

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/appstore"
	"repro/internal/experiment"
	"repro/internal/staticanalysis"
)

// study runs the registered corpus experiment (one ScanRange trial per
// StudyChunkSize chunk) on a worker pool and returns the chunk reports
// merged in chunk order, the report animbench -exp corpus renders.
func study(t *testing.T, seed int64, n, workers int) appstore.Report {
	t.Helper()
	exp, err := experiment.New("corpus", experiment.Config{CorpusN: n})
	if err != nil {
		t.Fatalf("New(corpus): %v", err)
	}
	results, err := experiment.Collect(exp, experiment.RunOpts{Seed: seed, Workers: workers})
	if err != nil {
		t.Fatalf("corpus study (seed %d, n %d, %d workers): %v", seed, n, workers, err)
	}
	var rep appstore.Report
	for i := range results {
		rep.Merge(experiment.Res[appstore.Report](results, i))
	}
	return rep
}

func TestStudyValidation(t *testing.T) {
	for _, n := range []int{0, -5} {
		exp, err := experiment.New("corpus", experiment.Config{CorpusN: n})
		if err != nil {
			t.Fatalf("New(corpus): %v", err)
		}
		if _, err := experiment.Run(exp, experiment.RunOpts{Seed: 1}); err == nil {
			t.Fatalf("corpus size %d accepted", n)
		}
	}
}

// TestStudyWorkerCountInvariant: the report is a pure function of (seed,
// n) — identical for any worker count, including a count above the chunk
// count.
func TestStudyWorkerCountInvariant(t *testing.T) {
	const n = 3*appstore.StudyChunkSize + 17
	base := study(t, 9, n, 1)
	if base.Total != n {
		t.Fatalf("Total = %d, want %d", base.Total, n)
	}
	for _, workers := range []int{2, 4, 16} {
		if rep := study(t, 9, n, workers); rep != base {
			t.Fatalf("worker count %d changed the report:\n%+v\nvs\n%+v", workers, rep, base)
		}
	}
}

// TestScanRangeMatchesStudy: a full-range ScanRange is the same study,
// and chunk-aligned sub-ranges merge to the byte-identical report.
func TestScanRangeMatchesStudy(t *testing.T) {
	const n = 3 * appstore.StudyChunkSize
	want := study(t, 31, n, 2)
	got, err := appstore.ScanRange(31, 0, n, appstore.PaperRates(), staticanalysis.Tier0)
	if err != nil {
		t.Fatalf("ScanRange: %v", err)
	}
	if got != want {
		t.Fatalf("ScanRange(0, n) differs from the study:\n got %+v\nwant %+v", got, want)
	}
	var merged appstore.Report
	for c := 0; c < 3; c++ {
		part, err := appstore.ScanRange(31, c*appstore.StudyChunkSize, appstore.StudyChunkSize, appstore.PaperRates(), staticanalysis.Tier0)
		if err != nil {
			t.Fatalf("ScanRange chunk %d: %v", c, err)
		}
		merged.Merge(part)
	}
	if merged != want {
		t.Fatalf("merged chunk reports differ from the study:\n got %+v\nwant %+v", merged, want)
	}
}

// TestFullScaleCorpusCalibration is the §VI-C2 acceptance check: at the
// paper's exact corpus size the parallel scanner's three headline counts
// land within ±2% of the paper's values.
func TestFullScaleCorpusCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("full 890,855-app scan skipped in -short")
	}
	if appstore.RaceEnabled {
		t.Skip("full 890,855-app scan skipped under -race (minutes-long)")
	}
	rep := study(t, 1, appstore.PaperCorpusSize, runtime.GOMAXPROCS(0))
	checks := []struct {
		name  string
		got   int
		paper int
	}{
		{"overlay+a11y", rep.OverlayPlusA11y, appstore.PaperOverlayPlusA11y},
		{"add/remove+SAW", rep.AddRemoveWithSAW, appstore.PaperAddRemoveWithSAW},
		{"custom toast", rep.CustomToast, appstore.PaperCustomToast},
	}
	for _, c := range checks {
		dev := math.Abs(float64(c.got)-float64(c.paper)) / float64(c.paper)
		if dev > 0.02 {
			t.Errorf("%s = %d deviates %.2f%% from paper %d (limit 2%%)", c.name, c.got, 100*dev, c.paper)
		}
	}
}

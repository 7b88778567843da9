package experiment

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/appstore"
	"repro/internal/staticanalysis"
)

// cancelAfterFirst wraps an experiment so that finishing its first trial
// cancels the run: with one worker the driver journals that trial and
// hands out no further ones, like a SIGINT between two chunks.
type cancelAfterFirst struct {
	Experiment
	cancel context.CancelFunc
}

func (e cancelAfterFirst) Trials(seed int64) ([]Trial, error) {
	trials, err := e.Experiment.Trials(seed)
	for i := range trials {
		run := trials[i].run
		trials[i].run = func() (any, error) {
			defer e.cancel()
			return run()
		}
	}
	return trials, err
}

// TestCorpusResumeAcrossWorkers is the corpus study's crash-safety
// contract on the experiment driver: a run cancelled mid-study leaves
// some but not all chunk trials in its journal, a resume at another
// worker count renders byte-identically to an uninterrupted run, and a
// journal written at one tier is refused at another.
func TestCorpusResumeAcrossWorkers(t *testing.T) {
	const (
		seed = int64(99)
		n    = 2*appstore.StudyChunkSize + 137 // three chunks, last one partial
	)
	corpus := func(tier staticanalysis.Tier) Experiment {
		exp, err := New("corpus", Config{CorpusN: n, Tier: tier})
		if err != nil {
			t.Fatalf("New(corpus): %v", err)
		}
		return exp
	}
	want, err := Run(corpus(staticanalysis.Tier0), RunOpts{Seed: seed})
	if err != nil {
		t.Fatalf("uninterrupted corpus: %v", err)
	}

	path := filepath.Join(t.TempDir(), "corpus.journal")
	exp := corpus(staticanalysis.Tier0)
	j, err := OpenJournal(path, exp.Name(), seed, exp.Params())
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := Run(cancelAfterFirst{exp, cancel}, RunOpts{Ctx: ctx, Seed: seed, Workers: 1, Journal: j}); err != context.Canceled {
		t.Fatalf("cancelled corpus returned %v, want context.Canceled", err)
	}
	j.Close()

	j, err = OpenJournal(path, exp.Name(), seed, exp.Params())
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	defer j.Close()
	trials, err := exp.Trials(seed)
	if err != nil {
		t.Fatalf("Trials: %v", err)
	}
	if done := j.Done(); done == 0 || done >= len(trials) {
		t.Fatalf("journal holds %d of %d trials after cancellation, want some but not all", done, len(trials))
	}
	if len(trials) != 3 {
		t.Fatalf("corpus of %d apps split into %d trials, want 3 (one per chunk)", n, len(trials))
	}
	got, err := Run(corpus(staticanalysis.Tier0), RunOpts{Seed: seed, Workers: 2, Journal: j})
	if err != nil {
		t.Fatalf("resumed corpus: %v", err)
	}
	if got.Text != want.Text {
		t.Fatalf("resumed report differs from uninterrupted run:\n-- got --\n%s\n-- want --\n%s", got.Text, want.Text)
	}

	tier2 := corpus(staticanalysis.Tier2)
	if _, err := OpenJournal(path, tier2.Name(), seed, tier2.Params()); err == nil || !strings.Contains(err.Error(), "different run") {
		t.Fatalf("tier0 journal opened for a tier2 study: err = %v", err)
	}
}

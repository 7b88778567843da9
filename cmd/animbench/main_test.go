package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// helperEnv carries the animbench arguments into a re-exec'ed copy of the
// test binary, which then behaves exactly like the real CLI (fsynced
// journals, real exit status) so tests can SIGKILL it mid-run.
const helperEnv = "ANIMBENCH_HELPER_ARGS"

func TestMain(m *testing.M) {
	if v, ok := os.LookupEnv(helperEnv); ok {
		var args []string
		if v != "" {
			args = strings.Split(v, "\x1f")
		}
		os.Exit(run(args))
	}
	os.Exit(m.Run())
}

func cfgWith(seed int64, model string, trials, corpusN int, faultProfile string) runConfig {
	return runConfig{seed: seed, model: model, trials: trials, corpusN: corpusN, faultProfile: faultProfile, workers: 1}
}

// TestRunOneFastExperiments exercises the dispatch wiring for every cheap
// experiment name; the heavy studies have their own tests in
// internal/experiment.
func TestRunOneFastExperiments(t *testing.T) {
	for _, name := range []string{"fig2", "fig4", "devices", "sensitivity", "defense-notif", "defense-toastgap"} {
		name := name
		t.Run(name, func(t *testing.T) {
			if _, err := runOne(context.Background(), name, cfgWith(1, "mi8", 1, 1000, "chaos")); err != nil {
				t.Fatalf("runOne(%s): %v", name, err)
			}
		})
	}
}

func TestRunOneCorpusSmall(t *testing.T) {
	if _, err := runOne(context.Background(), "corpus", cfgWith(1, "mi8", 1, 5000, "chaos")); err != nil {
		t.Fatalf("runOne(corpus): %v", err)
	}
}

func TestRunOneDegradation(t *testing.T) {
	if _, err := runOne(context.Background(), "degradation", cfgWith(1, "mi8", 1, 1000, "binder")); err != nil {
		t.Fatalf("runOne(degradation): %v", err)
	}
}

// TestRunOneWorkersParity: the CLI contract behind -workers — the pooled
// dispatch must not change an experiment's skip count or fail where the
// sequential one succeeds.
func TestRunOneWorkersParity(t *testing.T) {
	cfg := cfgWith(1, "mi8", 1, 1000, "binder")
	cfg.workers = 4
	for _, name := range []string{"fig6", "load", "degradation"} {
		name := name
		t.Run(name, func(t *testing.T) {
			if _, err := runOne(context.Background(), name, cfg); err != nil {
				t.Fatalf("runOne(%s, workers=4): %v", name, err)
			}
		})
	}
}

func TestRunOneUnknown(t *testing.T) {
	if _, err := runOne(context.Background(), "fig99", cfgWith(1, "mi8", 1, 1000, "chaos")); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunOneBadModel(t *testing.T) {
	if _, err := runOne(context.Background(), "fig6", cfgWith(1, "not-a-phone", 1, 1000, "chaos")); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestRunOneBadFaultProfile(t *testing.T) {
	if _, err := runOne(context.Background(), "degradation", cfgWith(1, "mi8", 1, 1000, "not-a-profile")); err == nil {
		t.Fatal("unknown fault profile accepted")
	}
}

func TestExitStatus(t *testing.T) {
	cases := []struct {
		expAll  bool
		skipped int
		want    int
	}{
		{false, 0, 0},
		{false, 5, 0}, // single experiments report skips in the footer only
		{true, 0, 0},
		{true, 1, 3},
		{true, 100, 3},
	}
	for _, c := range cases {
		if got := exitStatus(c.expAll, c.skipped); got != c.want {
			t.Errorf("exitStatus(%v, %d) = %d, want %d", c.expAll, c.skipped, got, c.want)
		}
	}
}

func TestRunUsageError(t *testing.T) {
	if got := run([]string{"-no-such-flag"}); got != 2 {
		t.Fatalf("run with bad flag = %d, want 2", got)
	}
	if got := run([]string{"-exp", "corpus", "-tier", "3"}); got != 2 {
		t.Fatalf("run with unknown tier = %d, want 2", got)
	}
}

// helperCmd builds an exec.Cmd that re-runs this test binary as the
// animbench CLI with the given arguments.
func helperCmd(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), helperEnv+"="+strings.Join(args, "\x1f"))
	return cmd
}

// TestJournalResumeAfterSIGKILL is the headline crash-safety check: a
// journaled table3 run is SIGKILLed mid-flight, then rerun with the same
// journal directory, and the resumed run's stdout must be byte-identical
// to an uninterrupted run's. The workers=4 variant kills the run while the
// pool is committing trials out of order, proving the content-addressed
// journal resumes correctly from an out-of-order prefix.
func TestJournalResumeAfterSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test skipped in -short mode")
	}
	for _, workers := range []string{"1", "4"} {
		workers := workers
		t.Run("workers="+workers, func(t *testing.T) {
			args := []string{"-exp", "table3", "-seed", "9", "-trials", "3", "-workers", workers}

			// Uninterrupted baseline, no journal.
			base := helperCmd(t, args...)
			var baseOut bytes.Buffer
			base.Stdout = &baseOut
			base.Stderr = os.Stderr
			if err := base.Run(); err != nil {
				t.Fatalf("baseline run: %v", err)
			}

			// Journaled run, killed mid-flight with SIGKILL.
			dir := t.TempDir()
			jargs := append(args, "-journal", dir)
			victim := helperCmd(t, jargs...)
			victim.Stdout = new(bytes.Buffer)
			if err := victim.Start(); err != nil {
				t.Fatalf("start victim: %v", err)
			}
			time.Sleep(250 * time.Millisecond)
			_ = victim.Process.Kill()
			_ = victim.Wait() // reap; exit error expected

			// The journal should have caught some finished trials before the
			// kill. If the victim somehow completed, the journal was deleted
			// and the rerun below degenerates to a fresh run — still a valid
			// comparison, but log it so a chronically-too-fast victim is
			// noticed.
			if _, err := os.Stat(filepath.Join(dir, "table3.journal")); err != nil {
				t.Logf("no journal left after kill (victim finished early?): %v", err)
			}

			// Resume with the same flags and journal directory.
			resumed := helperCmd(t, jargs...)
			var resumedOut bytes.Buffer
			resumed.Stdout = &resumedOut
			resumed.Stderr = os.Stderr
			if err := resumed.Run(); err != nil {
				t.Fatalf("resumed run: %v", err)
			}

			if !bytes.Equal(baseOut.Bytes(), resumedOut.Bytes()) {
				t.Errorf("resumed output differs from uninterrupted run\nbaseline:\n%s\nresumed:\n%s",
					baseOut.String(), resumedOut.String())
			}
			// A finished experiment must clean up its journal.
			if _, err := os.Stat(filepath.Join(dir, "table3.journal")); !os.IsNotExist(err) {
				t.Errorf("journal not deleted after successful resume (stat err: %v)", err)
			}
		})
	}
}

// TestJournalSeedMismatchRejected: rerunning with a different seed against
// an existing journal must fail loudly instead of mixing trial streams.
func TestJournalSeedMismatchRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	dir := t.TempDir()

	first := helperCmd(t, "-exp", "table3", "-trials", "3", "-seed", "3", "-journal", dir)
	first.Stdout = new(bytes.Buffer)
	if err := first.Start(); err != nil {
		t.Fatalf("start first: %v", err)
	}
	time.Sleep(250 * time.Millisecond)
	_ = first.Process.Kill()
	_ = first.Wait()
	if _, err := os.Stat(filepath.Join(dir, "table3.journal")); err != nil {
		t.Skipf("first run left no journal to conflict with: %v", err)
	}

	second := helperCmd(t, "-exp", "table3", "-trials", "3", "-seed", "4", "-journal", dir)
	var errOut bytes.Buffer
	second.Stdout = new(bytes.Buffer)
	second.Stderr = &errOut
	err := second.Run()
	var exitErr *exec.ExitError
	if err == nil {
		t.Fatal("seed mismatch against existing journal accepted")
	} else if !errors.As(err, &exitErr) {
		t.Fatalf("second run: %v", err)
	}
	if !strings.Contains(errOut.String(), "journal") {
		t.Errorf("mismatch error does not mention the journal: %q", errOut.String())
	}
}

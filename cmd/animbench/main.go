// Command animbench regenerates the paper's tables and figures from the
// simulation and prints them next to the published values.
//
// Usage:
//
//	animbench -exp all
//	animbench -exp fig7 -seed 42
//	animbench -exp table2 -workers 4
//	animbench -exp all -journal /tmp/animbench-journal
//	animbench -exp corpus -seed 1 -workers $(nproc)   # §VI-C2 at full scale
//	animbench -exp corpus -corpus 100000 -tier 2
//
// Every experiment is dispatched through the experiment registry and runs
// on the unified driver: -workers N executes independent trials on a
// bounded worker pool, and the report is byte-identical to -workers 1 for
// every experiment and worker count.
//
// With -journal, every finished trial is fsynced to a per-experiment
// journal in the given directory. A run killed at any instant — SIGKILL
// included — rerun with the same flags resumes from the journal and prints
// a report byte-identical to an uninterrupted run; a completed experiment
// deletes its journal. Journals key trials by a content hash of their
// inputs, so out-of-order commits from the worker pool resume correctly.
//
// Exit status: 0 on success, 1 on error, 2 on interrupt or usage error,
// and 3 when `-exp all` completes but some trials were skipped (the report
// footer shows the count).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"repro/internal/appstore"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/staticanalysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// runConfig carries the flag values into the experiment dispatch.
type runConfig struct {
	seed         int64
	model        string
	trials       int
	corpusN      int
	tier         staticanalysis.Tier
	faultProfile string
	fleetSize    int
	fleetSeed    int64
	journalDir   string
	workers      int
}

func run(args []string) int {
	fs := flag.NewFlagSet("animbench", flag.ContinueOnError)
	var (
		exp          = fs.String("exp", "all", "experiment to run ("+strings.Join(experiment.Names(), ", ")+", all)")
		seed         = fs.Int64("seed", 42, "simulation seed")
		model        = fs.String("model", "mi8", "device model for single-device experiments (fig6, load)")
		trials       = fs.Int("trials", 10, "passwords per participant for table3 (paper: 10)")
		corpus       = fs.Int("corpus", appstore.PaperCorpusSize, "synthetic corpus size for the §VI-C2 study")
		tierArg      = fs.String("tier", "0", "static-analysis precision tier (0..2) of the §VI-C2 corpus scan")
		faultProfile = fs.String("faultprofile", "chaos", "fault profile for the degradation sweep ("+strings.Join(faults.Names(), ", ")+")")
		fleetSize    = fs.Int("fleet-size", 1000, "generated device population size for the fleet sweep")
		fleetSeed    = fs.Int64("fleet-seed", 42, "generation seed for the fleet sweep's device population")
		journalDir   = fs.String("journal", "", "directory for per-trial journals; a killed run rerun with the same flags resumes to a byte-identical report")
		workers      = fs.Int("workers", 1, "trial worker pool size; any value renders byte-identical reports")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	tier, err := staticanalysis.ParseTier(*tierArg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "animbench: %v\n", err)
		return 2
	}
	cfg := runConfig{
		seed:         *seed,
		model:        *model,
		trials:       *trials,
		corpusN:      *corpus,
		tier:         tier,
		faultProfile: *faultProfile,
		fleetSize:    *fleetSize,
		fleetSeed:    *fleetSeed,
		journalDir:   *journalDir,
		workers:      *workers,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	names := strings.Split(*exp, ",")
	if *exp == "all" {
		names = experiment.SuiteNames()
	}
	totalSkipped := 0
	for _, name := range names {
		skipped, err := runOne(ctx, strings.TrimSpace(name), cfg)
		totalSkipped += skipped
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "animbench: %s: interrupted\n", name)
				return 2
			}
			fmt.Fprintf(os.Stderr, "animbench: %s: %v\n", name, err)
			return 1
		}
		fmt.Println()
	}
	if totalSkipped > 0 {
		// The report footer: a run that silently loses trials must say so
		// in the output...
		fmt.Printf("animbench: WARNING: %d trial(s) skipped across experiments\n", totalSkipped)
	}
	// ...and, for the full suite, in the exit status.
	return exitStatus(*exp == "all", totalSkipped)
}

// exitStatus maps a completed run's skipped-trial count to the process
// exit code: a full `-exp all` suite that lost trials exits 3 so CI and
// scripts cannot mistake a degraded run for a clean one.
func exitStatus(expAll bool, skipped int) int {
	if expAll && skipped > 0 {
		return 3
	}
	return 0
}

// openJournal opens the per-experiment trial journal under cfg.journalDir,
// or returns nil (journaling disabled) when no directory was given. params
// must capture every flag that changes the experiment's trial identity.
func openJournal(cfg runConfig, exp, params string) (*experiment.Journal, error) {
	if cfg.journalDir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(cfg.journalDir, 0o755); err != nil {
		return nil, fmt.Errorf("animbench: create journal dir: %w", err)
	}
	return experiment.OpenJournal(filepath.Join(cfg.journalDir, exp+".journal"), exp, cfg.seed, params)
}

// runOne builds the named experiment from the registry and hands it to the
// unified driver: the one code path covers journaling, resume and the
// worker pool for every experiment.
func runOne(ctx context.Context, name string, cfg runConfig) (skipped int, err error) {
	exp, err := experiment.New(name, experiment.Config{
		Model:        cfg.model,
		Trials:       cfg.trials,
		CorpusN:      cfg.corpusN,
		Tier:         cfg.tier,
		FaultProfile: cfg.faultProfile,
		FleetSize:    cfg.fleetSize,
		FleetSeed:    cfg.fleetSeed,
	})
	if err != nil {
		return 0, err
	}
	j, err := openJournal(cfg, experiment.JournalNameOf(exp), exp.Params())
	if err != nil {
		return 0, err
	}
	defer j.Close()
	out, err := experiment.Run(exp, experiment.RunOpts{
		Ctx:     ctx,
		Seed:    cfg.seed,
		Workers: cfg.workers,
		Journal: j,
	})
	if err != nil {
		return 0, err
	}
	fmt.Print(out.Text)
	return out.Skipped, j.Finish()
}

package experiment

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/staticanalysis"
)

// Config carries the CLI-level parameters an experiment constructor may
// need besides the seed. Zero values fall back to the flag defaults the
// paper uses, so tests can build experiments from a partial Config.
type Config struct {
	// Model is the device model for single-device experiments (fig6, load,
	// drawer).
	Model string
	// Trials is the passwords-per-participant count for table3 (paper: 10).
	Trials int
	// CorpusN is the synthetic corpus size for the §VI-C2 study.
	CorpusN int
	// Tier is the static-analysis precision tier of the §VI-C2 corpus
	// scan (zero value: Tier0, the paper baseline). The precision
	// experiment scans every tier and ignores it.
	Tier staticanalysis.Tier
	// FaultProfile names the fault profile for the degradation sweep.
	FaultProfile string
	// FleetSize and FleetSeed parameterize the generated population of the
	// fleet sweep; zero values take the sweep's defaults (1000 devices,
	// seed 42).
	FleetSize int
	FleetSeed int64
}

// journalNamer lets an experiment override the journal identity its runs
// share: fig7 and fig8 render one capture study, so they declare one
// journal name and a run of either resumes the other's trials.
type journalNamer interface {
	JournalName() string
}

// JournalNameOf reports the journal identity for an experiment: its
// JournalName if it declares one, its Name otherwise.
func JournalNameOf(exp Experiment) string {
	if n, ok := exp.(journalNamer); ok {
		return n.JournalName()
	}
	return exp.Name()
}

// registration is one registry entry. suite marks the experiments `-exp
// all` runs; the heavyweight sweeps (degradation) and pure catalogs
// (devices) stay callable by name only.
type registration struct {
	name  string
	suite bool
	build func(cfg Config) Experiment
}

// registrations is the ordered experiment registry; the suite subset, in
// this order, is the `-exp all` sequence.
var registrations = []registration{
	{"fig2", true, func(Config) Experiment {
		return &oneShot{name: "fig2", run: func(int64) (string, error) { return RenderFig2(), nil }}
	}},
	{"fig4", true, func(Config) Experiment {
		return &oneShot{name: "fig4", run: func(int64) (string, error) { return RenderFig4(), nil }}
	}},
	{"fig6", true, func(cfg Config) Experiment { return &fig6Exp{model: cfg.Model} }},
	{"table2", true, func(Config) Experiment { return &table2Exp{} }},
	{"load", true, func(cfg Config) Experiment { return &loadExp{model: cfg.Model} }},
	{"fig7", true, func(Config) Experiment { return &captureExp{} }},
	{"fig8", true, func(Config) Experiment { return &captureExp{fig8: true} }},
	{"table3", true, func(cfg Config) Experiment { return &table3Exp{perParticipant: cfg.Trials} }},
	{"table4", true, func(Config) Experiment { return single("table4", "", TableIV, RenderTableIV) }},
	{"stealth", true, func(Config) Experiment { return single("stealth", "", Stealthiness, RenderStealth) }},
	{"corpus", true, func(cfg Config) Experiment { return &corpusExp{n: cfg.CorpusN, tier: cfg.Tier} }},
	{"precision", true, func(cfg Config) Experiment { return &precisionExp{corpusN: cfg.CorpusN} }},
	{"defense-ipc", true, func(Config) Experiment {
		return single("defense-ipc", "",
			func(seed int64) (DefenseIPCReport, error) { return DefenseIPC(seed, faults.None()) },
			RenderDefenseIPC)
	}},
	{"defense-notif", true, func(Config) Experiment {
		return single("defense-notif", "",
			func(seed int64) (DefenseNotifReport, error) { return DefenseNotif(seed, faults.None()) },
			RenderDefenseNotif)
	}},
	{"defense-toastgap", true, func(Config) Experiment {
		return single("defense-toastgap", "", DefenseToastGap, RenderDefenseToastGap)
	}},
	{"drawer", true, func(cfg Config) Experiment {
		return single("drawer", "model="+cfg.Model,
			func(seed int64) (DrawerCheckReport, error) { return DrawerCheck(cfg.Model, seed) },
			RenderDrawerCheck)
	}},
	{"sensitivity", true, func(Config) Experiment {
		return single("sensitivity", "", ScatterSensitivity, RenderScatterSensitivity)
	}},
	{"ablations", true, func(Config) Experiment { return single("ablations", "", Ablations, RenderAblations) }},
	{"devices", false, func(Config) Experiment {
		return &oneShot{name: "devices", run: func(int64) (string, error) { return RenderDeviceCatalog(), nil }}
	}},
	{"degradation", false, func(cfg Config) Experiment { return &degradationExp{profileName: cfg.FaultProfile} }},
	{"fleet", false, func(cfg Config) Experiment {
		size, fseed := cfg.FleetSize, cfg.FleetSeed
		if size == 0 {
			size = fleetDefaultSize
		}
		if fseed == 0 {
			fseed = fleetDefaultSeed
		}
		return &fleetExp{size: size, fleetSeed: fseed}
	}},
}

// Names lists every registered experiment, in registry order.
func Names() []string {
	out := make([]string, 0, len(registrations))
	for _, r := range registrations {
		out = append(out, r.name)
	}
	return out
}

// SuiteNames lists the experiments `-exp all` runs, in order.
func SuiteNames() []string {
	var out []string
	for _, r := range registrations {
		if r.suite {
			out = append(out, r.name)
		}
	}
	return out
}

// New builds the named experiment from cfg.
func New(name string, cfg Config) (Experiment, error) {
	for _, r := range registrations {
		if r.name == name {
			return r.build(cfg), nil
		}
	}
	return nil, fmt.Errorf("experiment: unknown experiment %q", name)
}

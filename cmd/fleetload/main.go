// Command fleetload replays a seeded, labeled device fleet against a
// running sentryd node — or, with -ring N, against a multi-node sentry
// it spawns itself — and scores the detections against the planted
// ground truth.
//
// The fleet is generated by internal/sentry.GenerateFleet: -attackers
// draw-and-destroy devices and -notif-abusers notification flooders
// planted at seeded positions among benign overlay users. Because the
// truth is generated, every replay doubles as a conformance run: after
// the streams drain, fleetload fetches GET /v1/report and prints the
// precision/recall report.
//
// The replay is open-loop — clients never slow down for the server —
// except that -retry429 re-sends shed batches honoring the server's
// Retry-After hint. -require-perfect turns the run into a gate: exit 1
// unless the node detected every planted attacker with zero false
// positives, the pattern labels match, and the accounting identity
// detected+clean+shed == devices_reported holds exactly.
//
// Ring mode (-ring N) is the chaos harness for the distributed serving
// plane: it spawns N sentryd peers (each with its own crash-safe
// detection journal) and one sentryrouter on ephemeral ports, replays
// the fleet through the router while -chaos SIGKILLs and restarts a
// seeded sequence of peers, optionally swaps the detection rules
// mid-run (-swap), and then proves four properties: the merged fleet
// report matches a single-node reference engine device for device; the
// router's exclusive batch accounting is exact; every /v1/flagged
// answer survives a SIGKILL-restart of every peer byte-identically;
// and post-swap detections carry the new config version.
//
// Usage:
//
//	fleetload -addr 127.0.0.1:8475 -devices 2000 -attackers 40 \
//	    -notif-abusers 20 -seed 42 -require-perfect
//	fleetload -ring 3 -sentryd-bin ./sentryd -router-bin ./sentryrouter \
//	    -chaos 300ms -swap -require-perfect
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/sentry"
)

// config carries the parsed flags into ring mode.
type config struct {
	devices, attackers, notifAbusers int
	span                             time.Duration
	seed                             int64
	clients, batch, retry429         int
	requirePerf                      bool

	ring       int
	sentrydBin string
	routerBin  string
	storeDir   string
	replicas   int
	chaos      time.Duration
	chaosKills int
	swap       bool
	netFaults  string
	netSeed    int64
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	addr := flag.String("addr", "127.0.0.1:8475", "sentryd address (host:port); ignored in -ring mode")
	flag.IntVar(&cfg.devices, "devices", 2000, "fleet size")
	flag.IntVar(&cfg.attackers, "attackers", 40, "planted draw-and-destroy devices")
	flag.IntVar(&cfg.notifAbusers, "notif-abusers", 20, "planted notification-flood devices")
	flag.DurationVar(&cfg.span, "span", 20*time.Second, "simulated capture span per device")
	flag.Int64Var(&cfg.seed, "seed", 42, "fleet generation seed (also drives chaos and retry jitter)")
	flag.IntVar(&cfg.clients, "clients", 32, "concurrent replay clients")
	flag.IntVar(&cfg.batch, "batch", 64, "records per ingest batch")
	flag.IntVar(&cfg.retry429, "retry429", 0, "re-sends of a shed batch, honoring Retry-After (0 = pure open loop)")
	flag.BoolVar(&cfg.requirePerf, "require-perfect", false, "exit 1 unless precision and recall are both 1.0 and accounting is exact")
	flag.IntVar(&cfg.ring, "ring", 0, "spawn a multi-node sentry: N sentryd peers plus a sentryrouter (0 = replay against -addr)")
	flag.StringVar(&cfg.sentrydBin, "sentryd-bin", "sentryd", "sentryd binary for -ring mode")
	flag.StringVar(&cfg.routerBin, "router-bin", "sentryrouter", "sentryrouter binary for -ring mode")
	flag.StringVar(&cfg.storeDir, "store-dir", "", "root directory for per-peer detection journals (default: a temp dir)")
	flag.IntVar(&cfg.replicas, "replicas", 2, "replica set size per device in -ring mode")
	flag.DurationVar(&cfg.chaos, "chaos", 0, "mean interval between SIGKILLs of a seeded-chosen peer (0 disables chaos)")
	flag.IntVar(&cfg.chaosKills, "chaos-kills", 2, "kill/restart cycles to run before chaos stops")
	flag.BoolVar(&cfg.swap, "swap", false, "swap the detection rules mid-run via POST /v1/config and verify version stamping")
	flag.StringVar(&cfg.netFaults, "net-faults", "none", "router-side network fault profile: "+strings.Join(faults.NetNames(), ", "))
	flag.Int64Var(&cfg.netSeed, "net-seed", 1, "seed for the router's network fault plane")
	flag.Parse()

	fl, err := sentry.GenerateFleet(sentry.FleetConfig{
		Devices:      cfg.devices,
		Attackers:    cfg.attackers,
		NotifAbusers: cfg.notifAbusers,
		Span:         cfg.span,
		Seed:         cfg.seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetload: %v\n", err)
		return 2
	}

	if cfg.ring > 0 {
		return runRing(cfg, fl)
	}

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: 15 * time.Second}

	fmt.Printf("fleetload: replaying %d devices (%d records) against %s with %d clients\n",
		len(fl.Devices), fl.Records(), base, cfg.clients)
	rs := sentry.ReplayFleet(client, base, fl, sentry.ReplayOptions{
		Clients: cfg.clients, Batch: cfg.batch, Retry429: cfg.retry429, Seed: cfg.seed,
	})
	if rs.Errors > 0 {
		fmt.Fprintf(os.Stderr, "fleetload: %d replay errors (first: %s)\n", rs.Errors, rs.FirstError)
	}

	snap, err := fetchReport(client, base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetload: fetch report: %v\n", err)
		return 1
	}
	fmt.Print(sentry.RenderFleetReport(snap, fl, rs))
	return conform(cfg, snap, fl)
}

// conform checks the fleet report's exclusive accounting and, under
// -require-perfect, perfect detection against the planted truth; it
// returns the exit code.
func conform(cfg config, snap sentry.Snapshot, fl *sentry.Fleet) int {
	c := sentry.Evaluate(snap, fl)
	if !c.AccountingOK {
		fmt.Fprintf(os.Stderr, "fleetload: ACCOUNTING VIOLATION: detected %d + clean %d + shed %d != reported %d\n",
			snap.Detected, snap.Clean, snap.Shed, snap.DevicesReported)
		return 1
	}
	if cfg.requirePerf && !c.Perfect() {
		fmt.Fprintf(os.Stderr, "fleetload: conformance FAILED: TP=%d FP=%d FN=%d mismatches=%d\n",
			c.TP, c.FP, c.FN, c.PatternMismatches)
		return 1
	}
	return 0
}

func fetchReport(client *http.Client, base string) (sentry.Snapshot, error) {
	var snap sentry.Snapshot
	resp, err := client.Get(base + "/v1/report")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

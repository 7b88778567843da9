package sentry_test

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/load"
	"repro/internal/sentry"
)

// update regenerates the golden fleet reports instead of comparing
// against them:
//
//	go test ./internal/sentry -run TestGoldenFleetReplay -update
var update = flag.Bool("update", false, "rewrite testdata/golden/*.txt from the current code")

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

// goldenFleets pins the reference replays at two seeds, so a
// seed-dependent bug (a hard-coded 42 anywhere in the generator)
// cannot hide behind one golden.
func goldenFleets() []struct {
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

// replayAgainstFreshServer boots a server at the given shard count,
// replays the fleet over real HTTP and renders the conformance report.
func replayAgainstFreshServer(t *testing.T, fl *sentry.Fleet, shards, clients int) string {
	t.Helper()
	srv, err := sentry.NewServer(sentry.ServerConfig{
		Engine:     sentry.Config{Shards: shards},
		QueueDepth: 256, // deeper than the client count: no shedding
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := &http.Client{Timeout: 15 * time.Second}
	rs := load.ReplayFleet(client, ts.URL, fl, load.ReplayOptions{Clients: clients, Batch: 48})
	if rs.Errors > 0 {
		t.Fatalf("replay errors: %d (first: %s)", rs.Errors, rs.FirstError)
	}
	return load.RenderFleetReport(srv.Engine().Snapshot(), fl, rs)
}

// TestGoldenFleetReplay is the tentpole conformance check: a seeded
// labeled fleet replayed over HTTP must render byte-identically at
// shard counts 1, 4 and 16 — and identically to the committed golden.
// Every planted attacker must be caught with zero false positives.
func TestGoldenFleetReplay(t *testing.T) {
	for _, g := range goldenFleets() {
		g := g
		t.Run(filepath.Base("fleet"+g.suffix), func(t *testing.T) {
			fl, err := sentry.GenerateFleet(sentry.FleetConfig{
				Devices: 600, Attackers: 12, NotifAbusers: 6,
				Span: 12 * time.Second, Seed: g.seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			reports := make(map[int]string, 3)
			for i, shards := range []int{1, 4, 16} {
				// Vary the client concurrency with the shard count so the
				// byte-identity also spans replay parallelism.
				reports[shards] = replayAgainstFreshServer(t, fl, shards, 8*(i+1))
			}
			if reports[1] != reports[4] || reports[4] != reports[16] {
				t.Fatalf("reports differ across shard counts:\n-- shards=1 --\n%s\n-- shards=4 --\n%s\n-- shards=16 --\n%s",
					reports[1], reports[4], reports[16])
			}
			checkGolden(t, "fleet"+g.suffix, reports[1])

			// The golden is also a conformance bar: perfect precision and
			// recall against the planted truth, exact accounting.
			snap := snapFromReplay(t, fl)
			if c := sentry.Evaluate(snap, fl); !c.Perfect() {
				t.Fatalf("imperfect conformance: %+v", c)
			}
		})
	}
}

// snapFromReplay re-runs a fleet through a bare engine (no HTTP) — the
// conformance score must not depend on the transport.
func snapFromReplay(t *testing.T, fl *sentry.Fleet) sentry.Snapshot {
	t.Helper()
	e, err := sentry.NewEngine(sentry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range fl.Devices {
		if _, err := e.Ingest(d.ID, d.Records); err != nil {
			t.Fatalf("%s: %v", d.ID, err)
		}
	}
	return e.Snapshot()
}

package sentring

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/load"
	"repro/internal/sentry"
)

// replayAgainstRing boots a ring of nodes real sentryd servers behind a
// router and replays the fleet over real HTTP through the routed path.
// mutate, when non-nil, adjusts the router config. It returns the
// rendered merged report and the router.
func replayAgainstRing(t *testing.T, fl *sentry.Fleet, nodes, clients int, mutate func(*Config)) (string, *Router) {
	t.Helper()
	peers := make([]string, nodes)
	for i := 0; i < nodes; i++ {
		node, err := sentry.NewServer(sentry.ServerConfig{QueueDepth: 256})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(node)
		t.Cleanup(func() { ts.Close(); node.Close() })
		peers[i] = strings.TrimPrefix(ts.URL, "http://")
	}
	cfg := Config{
		Peers:         peers,
		Replicas:      2, // clamped to 1 on a single-node ring
		ProbeInterval: -1,
		RetryBase:     time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	front := httptest.NewServer(r)
	t.Cleanup(front.Close)

	client := &http.Client{Timeout: 15 * time.Second}
	rs := load.ReplayFleet(client, front.URL, fl, load.ReplayOptions{Clients: clients, Batch: 48})
	if rs.Errors > 0 {
		t.Fatalf("replay errors: %d (first: %s)", rs.Errors, rs.FirstError)
	}
	st := r.Snapshot()
	if st.Routed != st.Batches || st.Degraded != 0 || st.Sheds != 0 || st.Failed != 0 {
		t.Fatalf("routed replay classified batches off the routed path: %+v", st)
	}
	return load.RenderFleetReport(r.MergedSnapshot(context.Background()), fl, rs), r
}

// TestGoldenRoutedFleetReplay is the topology-independence bar for the
// multi-node sentry: the same labeled fleet replayed through a 1-node
// and a 3-node routed ring must render byte-identically — and
// identically to the single-node golden committed by the sentry
// package's own conformance suite. Detection is a pure function of the
// device stream; topology must never show through the report.
func TestGoldenRoutedFleetReplay(t *testing.T) {
	for _, g := range []struct {
		seed   int64
		suffix string
	}{
		{42, ""},
		{7, "-seed7"},
	} {
		g := g
		t.Run("fleet"+g.suffix, func(t *testing.T) {
			fl, err := sentry.GenerateFleet(sentry.FleetConfig{
				Devices: 600, Attackers: 12, NotifAbusers: 6,
				Span: 12 * time.Second, Seed: g.seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			reports := make(map[int]string, 2)
			for i, nodes := range []int{1, 3} {
				reports[nodes], _ = replayAgainstRing(t, fl, nodes, 8*(i+1), nil)
			}
			if reports[1] != reports[3] {
				t.Fatalf("reports differ across node counts:\n-- nodes=1 --\n%s\n-- nodes=3 --\n%s",
					reports[1], reports[3])
			}
			goldenPath := filepath.Join("..", "sentry", "testdata", "golden", fmt.Sprintf("fleet%s.txt", g.suffix))
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("read single-node golden: %v", err)
			}
			if reports[3] != string(want) {
				t.Errorf("routed report drifted from the single-node golden %s\n-- routed --\n%s\n-- golden --\n%s",
					goldenPath, reports[3], string(want))
			}
		})
	}
}

// Command sentryrouter fronts a ring of sentryd peers
// (internal/sentring): it shards the device fleet by consistent hashing
// with R-way batch replication, retries incomplete replica sets with
// bounded seeded backoff, opens per-peer circuit breakers fed by
// background /readyz probes, and degrades to a local detection engine
// (responses stamped "degraded":true) when every replica for a device
// is unreachable. GET /v1/report merges the peers' per-device
// accounting into one exact fleet report; GET /v1/flagged proxies the
// device's replicas; POST /v1/config fans a versioned rule swap to
// every peer and re-pushes it to peers that restart.
//
// Its HTTP surface mirrors sentryd's, so clients cannot tell a node
// from the ring. It prints "sentryrouter: listening on ADDR" once bound
// and shuts down cleanly on SIGINT/SIGTERM.
//
// -net-faults injects a deterministic network fault profile (see
// internal/netfaults.Names) beneath the peer clients — the chaos lever
// cmd/fleetload's ring mode pulls.
//
// Usage:
//
//	sentryrouter -addr :8486 -peers 127.0.0.1:9001,127.0.0.1:9002 -replicas 2
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/netfaults"
	"repro/internal/ring"
	"repro/internal/sentring"
	"repro/internal/sentry"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr       = flag.String("addr", ":8486", "listen address (host:port; :0 picks an ephemeral port)")
		peersArg   = flag.String("peers", "", "comma-separated sentryd peer addresses (host:port), in ring order")
		replicas   = flag.Int("replicas", 2, "replica set size per device")
		vnodes     = flag.Int("vnodes", 64, "virtual ring points per peer")
		deadline   = flag.Duration("deadline", 2*time.Second, "per-peer-attempt deadline")
		retries    = flag.Int("retries", 1, "max extra retry passes over the replica set; a pass runs only after a failed or shed (429) attempt")
		probe      = flag.Duration("probe", 250*time.Millisecond, "health probe interval (negative disables)")
		fallbackC  = flag.Int("fallback", 4, "max concurrent local degraded ingests")
		seed       = flag.Int64("seed", 1, "seed for retry-backoff jitter")
		window     = flag.Duration("window", 3*time.Second, "fallback engine sliding window (match the peers)")
		minCalls   = flag.Int("min-calls", 8, "fallback engine MinCalls (match the peers)")
		maxGap     = flag.Duration("max-gap", 50*time.Millisecond, "fallback engine MaxSwapGap (match the peers)")
		minSwaps   = flag.Int("min-swaps", 4, "fallback engine MinSwaps (match the peers)")
		notifFlood = flag.Int("notif-flood", 30, "fallback engine NotifFlood (match the peers)")
		netProf    = flag.String("net-faults", "none", "injected network fault profile: "+strings.Join(netfaults.Names(), ", "))
		netSeed    = flag.Int64("net-seed", 1, "seed for the network fault plane")
	)
	flag.Parse()
	peers, plane, prof, err := ring.ParsePeers(*peersArg, *netProf, *netSeed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sentryrouter: %v\n", err)
		return 2
	}

	router, err := sentring.New(sentring.Config{
		Peers:    peers,
		Replicas: *replicas,
		VNodes:   *vnodes,
		Engine: sentry.Config{
			Window:     *window,
			MinCalls:   *minCalls,
			MaxSwapGap: *maxGap,
			MinSwaps:   *minSwaps,
			NotifFlood: *notifFlood,
		},
		Deadline:            *deadline,
		Retries:             *retries,
		ProbeInterval:       *probe,
		FallbackConcurrency: *fallbackC,
		Seed:                *seed,
		NetPlane:            plane,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sentryrouter: %v\n", err)
		return 2
	}
	defer router.Close()

	detail := fmt.Sprintf(" (peers %s, replicas %d, faults %s)", strings.Join(peers, ","), router.Ring().ReplicaCount(), prof.Name)
	if code := ring.Serve("sentryrouter", *addr, router, detail, nil); code != 0 {
		return code
	}
	router.Close()
	st := router.Snapshot()
	fmt.Printf("sentryrouter: shutdown complete (batches=%d routed=%d degraded=%d sheds=%d failed=%d retries=%d config_version=%d)\n",
		st.Batches, st.Routed, st.Degraded, st.Sheds, st.Failed, st.Retries, st.ConfigVersion)
	if plane != nil {
		fmt.Printf("sentryrouter: net faults injected: %s\n", plane.Stats())
	}
	return 0
}

// Command vetrouter fronts a ring of vetd peers (internal/vetring): it
// shards the verdict keyspace by consistent hashing with R-way
// replication, fails over across replicas with bounded seeded-backoff
// retries, opens per-peer circuit breakers fed by background /readyz
// probes, and degrades to a local analysis (verdicts stamped
// "degraded":true) when every replica for a key is unreachable.
//
// Its HTTP surface mirrors vetd's, so clients cannot tell a node from
// the ring. It prints "vetrouter: listening on ADDR" once bound and
// shuts down cleanly on SIGINT/SIGTERM.
//
// -net-faults injects a deterministic network fault profile (see
// internal/netfaults.Names) beneath the peer clients — the chaos lever
// cmd/vetload's ring mode pulls.
//
// Usage:
//
//	vetrouter -addr :8475 -peers 127.0.0.1:9001,127.0.0.1:9002 -replicas 2 -tier 2
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/netfaults"
	"repro/internal/ring"
	"repro/internal/staticanalysis"
	"repro/internal/vetring"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr      = flag.String("addr", ":8475", "listen address (host:port; :0 picks an ephemeral port)")
		peersArg  = flag.String("peers", "", "comma-separated vetd peer addresses (host:port), in ring order")
		replicas  = flag.Int("replicas", 2, "replica set size per verdict key")
		vnodes    = flag.Int("vnodes", 64, "virtual ring points per peer")
		tierArg   = flag.String("tier", "0", "static analysis precision tier (0..2); must match the peers")
		deadline  = flag.Duration("deadline", 2*time.Second, "per-peer-attempt deadline")
		retries   = flag.Int("retries", 1, "max extra retry passes over the replica set; a pass runs only after a failed or shed (429) attempt")
		probe     = flag.Duration("probe", 250*time.Millisecond, "health probe interval (negative disables)")
		fallbackC = flag.Int("fallback", 4, "max concurrent local degraded analyses")
		seed      = flag.Int64("seed", 1, "seed for retry-backoff jitter")
		netProf   = flag.String("net-faults", "none", "injected network fault profile: "+strings.Join(netfaults.Names(), ", "))
		netSeed   = flag.Int64("net-seed", 1, "seed for the network fault plane")
	)
	flag.Parse()
	tier, err := staticanalysis.ParseTier(*tierArg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vetrouter: %v\n", err)
		return 2
	}
	peers, plane, prof, err := ring.ParsePeers(*peersArg, *netProf, *netSeed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vetrouter: %v\n", err)
		return 2
	}

	router, err := vetring.New(vetring.Config{
		Peers:               peers,
		Replicas:            *replicas,
		VNodes:              *vnodes,
		Tier:                tier,
		Deadline:            *deadline,
		Retries:             *retries,
		ProbeInterval:       *probe,
		FallbackConcurrency: *fallbackC,
		Seed:                *seed,
		NetPlane:            plane,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "vetrouter: %v\n", err)
		return 2
	}
	defer router.Close()

	detail := fmt.Sprintf(" (peers %s, replicas %d, faults %s)", strings.Join(peers, ","), router.Ring().ReplicaCount(), prof.Name)
	if code := ring.Serve("vetrouter", *addr, router, detail, nil); code != 0 {
		return code
	}
	router.Close()
	st := router.Snapshot()
	fmt.Printf("vetrouter: shutdown complete (requests=%d replicated=%d degraded=%d sheds=%d failed=%d retries=%d)\n",
		st.Requests, st.Replicated, st.Degraded, st.Sheds, st.Failed, st.Retries)
	if plane != nil {
		fmt.Printf("vetrouter: net faults injected: %s\n", plane.Stats())
	}
	return 0
}

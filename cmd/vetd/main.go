// Command vetd serves the scan-before-install vetting service
// (internal/vetd) over HTTP: POST /v1/vet, POST /v1/vet/batch,
// GET /healthz, GET /readyz, GET /metrics, GET /stats.
//
// With -store DIR the node keeps a crash-safe persistent verdict store
// (internal/vetstore) at DIR/verdicts.store: every computed verdict is
// fsynced before it retires, and a SIGKILLed node recovers the full
// acknowledged keyspace on restart without re-analyzing. -compact
// rewrites the store without duplicate records and exits.
//
// It prints "vetd: listening on ADDR" once the listener is bound (with
// -addr :0 the printed address carries the ephemeral port, which is how
// the verify.sh smoke stage finds it) and shuts down cleanly on SIGINT
// or SIGTERM: stop accepting, drain in-flight requests, stop the
// analysis pool, exit 0.
//
// The static pass runs at a selectable precision tier (-tier 0..2; see
// internal/staticanalysis). The tier is part of every verdict cache key,
// so restarting the daemon at a different tier never serves a verdict
// computed at the old one.
//
// Usage:
//
//	vetd -addr :8474 -cache 8192 -workers 8 -deadline 2s -tier 2
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ring"
	"repro/internal/staticanalysis"
	"repro/internal/vetd"
	"repro/internal/vetstore"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr     = flag.String("addr", ":8474", "listen address (host:port; :0 picks an ephemeral port)")
		cacheCap = flag.String("cache", "8192", "verdict cache capacity in entries (\"off\" disables caching)")
		shards   = flag.Int("shards", 16, "verdict cache shard count")
		queue    = flag.Int("queue", 256, "analysis admission queue depth (full queue sheds with 429)")
		workers  = flag.Int("workers", 0, "analysis worker count (0 = GOMAXPROCS)")
		deadline = flag.Duration("deadline", 2*time.Second, "per-request analysis deadline")
		maxBatch = flag.Int("max-batch", 256, "maximum apps per batch request")
		logDest  = flag.String("log", "", "structured request log destination (\"-\" for stderr, path for a file, empty to disable)")
		tierArg  = flag.String("tier", "0", "static analysis precision tier (0..2)")
		storeDir = flag.String("store", "", "persistent verdict store directory (empty disables persistence)")
		compact  = flag.Bool("compact", false, "compact the -store file and exit (offline maintenance; do not run against a live node)")
	)
	flag.Parse()
	tier, err := staticanalysis.ParseTier(*tierArg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vetd: %v\n", err)
		return 2
	}

	var store *vetstore.Store
	if *storeDir != "" {
		path := filepath.Join(*storeDir, "verdicts.store")
		store, err = vetstore.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vetd: open store: %v\n", err)
			return 1
		}
		defer store.Close()
		st := store.Stats()
		fmt.Printf("vetd: store %s recovered %d verdicts (torn tail: %v)\n", path, st.Recovered, st.TornTail)
		if *compact {
			if err := store.Compact(); err != nil {
				fmt.Fprintf(os.Stderr, "vetd: compact: %v\n", err)
				return 1
			}
			fmt.Printf("vetd: store compacted to %d records\n", store.Len())
			return 0
		}
	} else if *compact {
		fmt.Fprintln(os.Stderr, "vetd: -compact requires -store")
		return 2
	}

	cfg := vetd.Config{
		CacheShards: *shards,
		QueueDepth:  *queue,
		Workers:     *workers,
		Deadline:    *deadline,
		MaxBatch:    *maxBatch,
		Tier:        tier,
		Store:       store,
	}
	if *cacheCap == "off" {
		cfg.CacheCapacity = -1
	} else if _, err := fmt.Sscanf(*cacheCap, "%d", &cfg.CacheCapacity); err != nil {
		fmt.Fprintf(os.Stderr, "vetd: bad -cache %q: %v\n", *cacheCap, err)
		return 2
	}
	switch *logDest {
	case "":
	case "-":
		cfg.LogWriter = os.Stderr
	default:
		f, err := os.Create(*logDest)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vetd: open log: %v\n", err)
			return 2
		}
		defer f.Close()
		cfg.LogWriter = f
	}

	srv := vetd.New(cfg)
	defer srv.Close()

	if code := ring.Serve("vetd", *addr, srv, "", nil); code != 0 {
		return code
	}
	srv.Close()
	stats := srv.Snapshot()
	fmt.Printf("vetd: shutdown complete (requests=%d hits=%d misses=%d sheds=%d analyses=%d)\n",
		stats.Requests, stats.Hits, stats.Misses, stats.Sheds, stats.Analyses)
	return 0
}

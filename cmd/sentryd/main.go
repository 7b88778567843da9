// Command sentryd serves the streaming fleet-scale detection service
// (internal/sentry) over HTTP: POST /v1/ingest, GET /v1/report,
// GET /v1/flagged, POST /v1/config, GET /healthz, GET /readyz,
// GET /metrics, GET /stats.
//
// Each POST /v1/ingest carries one wire-format record batch for one
// device; the engine maintains per-device sliding windows (sharded by
// device ID) and flags draw-and-destroy overlay swaps and
// notification floods as they stream in. Admission is bounded: when
// -queue batches are already in flight the node sheds with 429 and the
// shed device stays accounted, so detected+clean+shed always equals
// devices_reported.
//
// -store DIR makes detections crash-safe: every flag is appended to a
// fsynced journal (internal/sentrystore) the instant it fires, and a
// restarted node recovers the journal before serving, so
// GET /v1/flagged answers byte-identically across a SIGKILL. -compact
// rewrites the journal (one record per key) at startup.
//
// It prints "sentryd: listening on ADDR" once the listener is bound
// (with -addr :0 the printed address carries the ephemeral port, which
// is how the verify.sh smoke stage finds it) and shuts down cleanly on
// SIGINT or SIGTERM: stop admitting, drain in-flight batches, print the
// final accounting, exit 0.
//
// Usage:
//
//	sentryd -addr :8475 -shards 8 -queue 64 -window 3s -store /var/lib/sentryd
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ring"
	"repro/internal/sentry"
	"repro/internal/sentrystore"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr       = flag.String("addr", ":8475", "listen address (host:port; :0 picks an ephemeral port)")
		shards     = flag.Int("shards", 8, "device state shard count (locking only; never affects results)")
		queue      = flag.Int("queue", 64, "admission gate depth (full gate sheds with 429)")
		window     = flag.Duration("window", 3*time.Second, "sliding detection window")
		minCalls   = flag.Int("min-calls", 8, "overlay calls per window before the swap rule evaluates")
		maxGap     = flag.Duration("max-gap", 50*time.Millisecond, "maximum remove->add gap counted as a swap")
		minSwaps   = flag.Int("min-swaps", 4, "swaps per window that flag draw-and-destroy")
		notifFlood = flag.Int("notif-flood", 30, "notifications per window that flag notify-flood (-1 disables)")
		ringCap    = flag.Int("ring", 128, "per-device overlay ring capacity (bounded memory under flood)")
		storeDir   = flag.String("store", "", "detection journal directory (crash-safe sentrystore; empty disables)")
		compact    = flag.Bool("compact", false, "compact the detection journal at startup")
	)
	flag.Parse()

	srv, err := sentry.NewServer(sentry.ServerConfig{
		Engine: sentry.Config{
			Shards:     *shards,
			Window:     *window,
			MinCalls:   *minCalls,
			MaxSwapGap: *maxGap,
			MinSwaps:   *minSwaps,
			NotifFlood: *notifFlood,
			RingCap:    *ringCap,
		},
		QueueDepth: *queue,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sentryd: %v\n", err)
		return 2
	}
	defer srv.Close()

	if *storeDir != "" {
		if err := os.MkdirAll(*storeDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "sentryd: store dir: %v\n", err)
			return 1
		}
		store, err := sentrystore.Open(filepath.Join(*storeDir, "flags.store"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "sentryd: %v\n", err)
			return 1
		}
		defer store.Close()
		if *compact {
			if err := store.Compact(); err != nil {
				fmt.Fprintf(os.Stderr, "sentryd: compact: %v\n", err)
				return 1
			}
		}
		ds, err := store.All()
		if err != nil {
			fmt.Fprintf(os.Stderr, "sentryd: %v\n", err)
			return 1
		}
		if err := srv.Engine().Restore(ds); err != nil {
			fmt.Fprintf(os.Stderr, "sentryd: %v\n", err)
			return 1
		}
		srv.Engine().SetJournal(sentrystore.Flagger{S: store, Window: *window})
		st := store.Stats()
		fmt.Printf("sentryd: store %s recovered %d detections (torn tail: %v)\n",
			store.Path(), st.Recovered, st.TornTail)
	}

	// srv.Close refuses new batches while the listener drains.
	if code := ring.Serve("sentryd", *addr, srv, "", srv.Close); code != 0 {
		return code
	}
	snap := srv.Engine().Snapshot()
	fmt.Printf("sentryd: shutdown complete (reported=%d detected=%d clean=%d shed=%d)\n",
		snap.DevicesReported, snap.Detected, snap.Clean, snap.Shed)
	return 0
}

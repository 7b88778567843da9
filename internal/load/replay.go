package load

import (
	"fmt"
	"net/http"
	"strings"
	"sync"

	"repro/internal/sentry"
	"repro/internal/simrand"
)

// ReplayOptions tunes ReplayFleet; the zero value is one client sending
// one record per batch, open-loop.
type ReplayOptions struct {
	// Clients is the replay goroutine count (default 1, clamped to the
	// device count).
	Clients int
	// Batch bounds records per ingest batch (default 1).
	Batch int
	// Retry429 is the number of re-sends of a shed batch, honoring the
	// server's Retry-After hint (see RetryDelay) before abandoning it.
	// 0 keeps the pure open-loop behavior: a shed batch is dropped and
	// the stream continues.
	Retry429 int
	// Seed drives the per-client retry jitter streams (default 1).
	Seed int64
}

// ReplayFleet replays the fleet's streams against a sentry server at
// base (e.g. "http://127.0.0.1:8475") from opts.Clients client
// goroutines, open-loop: clients send as the schedule dictates and
// never slow down for the server — an overloaded node sheds, it is not
// protected by client backoff. It counts one outcome per batch.
//
// Device i is owned by client i%clients; each client interleaves its
// devices round-robin, one batch per device per pass, so per-device
// batches arrive strictly in stream order (the engine's sequence
// contract) while the fleet's streams interleave freely. 429 responses
// are counted shed and, once opts.Retry429 re-sends are spent, the
// stream continues with the next batch — the skipped sequence range is
// exactly the gap the engine tolerates. Transport errors are counted,
// not fatal, so a replay can ride through a server restart.
func ReplayFleet(client *http.Client, base string, fl *sentry.Fleet, opts ReplayOptions) Counts {
	clients := min(max(opts.Clients, 1), len(fl.Devices))
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	master := simrand.New(seed)
	// Per-client streams are derived up front: Derive advances the
	// parent source, so deriving inside the goroutines would race.
	rngs := make([]*simrand.Source, clients)
	for c := range rngs {
		rngs[c] = master.DeriveIndexed("sentry/replay", c)
	}
	counts := make([]Counts, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			type devReplay struct {
				id   string
				segs [][]sentry.Record
			}
			var devs []devReplay
			for i := c; i < len(fl.Devices); i += clients {
				d := fl.Devices[i]
				if len(d.Records) == 0 {
					continue
				}
				devs = append(devs, devReplay{id: d.ID, segs: segments(d.Records, opts.Batch)})
			}
			for pass := 0; ; pass++ {
				sent := false
				for _, d := range devs {
					if pass >= len(d.segs) {
						continue
					}
					sent = true
					sendBatch(client, base, d.id, d.segs[pass], opts.Retry429, rngs[c], &counts[c])
				}
				if !sent {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	var total Counts
	for _, c := range counts {
		total.Merge(c)
	}
	return total
}

// segments splits a stream into batches of at most batch records.
func segments(recs []sentry.Record, batch int) [][]sentry.Record {
	var out [][]sentry.Record
	for len(recs) > 0 {
		n := min(max(batch, 1), len(recs))
		out = append(out, recs[:n])
		recs = recs[n:]
	}
	return out
}

// sendBatch posts one device batch and classifies the final answer.
func sendBatch(client *http.Client, base, device string, recs []sentry.Record, retries int, rng *simrand.Source, c *Counts) {
	body, err := sentry.EncodeBatch(recs)
	if err != nil {
		c.Fail(1, fmt.Errorf("encode %s: %w", device, err))
		return
	}
	status, _, err := Post(client, base+"/v1/ingest?device="+device, "text/plain", body, 1, retries, rng, c)
	switch {
	case err != nil:
	case status == http.StatusOK:
		c.OK++
	case status == http.StatusTooManyRequests:
		c.Shed++
	default:
		c.Fail(1, fmt.Errorf("post %s: status %d", device, status))
	}
}

// RenderFleetReport formats a replayed fleet's conformance report. The
// output is a pure function of the snapshot, the fleet and the replay
// counts — no wall-clock content — so a seeded replay renders
// byte-identically at any shard count and client concurrency, which is
// exactly what the golden tests pin.
func RenderFleetReport(snap sentry.Snapshot, fl *sentry.Fleet, rc Counts) string {
	c := sentry.Evaluate(snap, fl)
	var sb strings.Builder
	fmt.Fprintf(&sb, "sentry fleet conformance — seed %d\n", fl.Cfg.Seed)
	fmt.Fprintf(&sb, "  fleet: %d devices (%d draw-and-destroy, %d notify-flood planted), span %v\n",
		fl.Cfg.Devices, fl.Cfg.Attackers, fl.Cfg.NotifAbusers, fl.Cfg.Span)
	accounting := "BROKEN"
	if c.AccountingOK {
		accounting = "exact"
	}
	fmt.Fprintf(&sb, "  reported %d = detected %d + clean %d + shed %d (accounting %s)\n",
		snap.DevicesReported, snap.Detected, snap.Clean, snap.Shed, accounting)
	fmt.Fprintf(&sb, "  records ingested: %d (ignored %d, ring evictions %d)\n",
		snap.RecordsIngested, snap.RecordsIgnored, snap.RingEvictions)
	fmt.Fprintf(&sb, "  replay: %d batches ok, %d shed, %d errors\n", rc.OK, rc.Shed, rc.Errors)
	fmt.Fprintf(&sb, "  truth: TP %d  FP %d  FN %d  pattern mismatches %d\n",
		c.TP, c.FP, c.FN, c.PatternMismatches)
	fmt.Fprintf(&sb, "  precision %.4f  recall %.4f\n", c.Precision(), c.Recall())
	if len(snap.Detections) > 0 {
		sb.WriteString("  detections:\n")
		for _, d := range snap.Detections {
			switch d.Pattern {
			case sentry.PatternDrawAndDestroy:
				fmt.Fprintf(&sb, "    %s  %s  at=%v calls=%d swaps=%d mean_gap=%v\n",
					d.Device, d.Pattern, d.At, d.Calls, d.Swaps, d.MeanSwapGap)
			default:
				fmt.Fprintf(&sb, "    %s  %s  at=%v calls=%d\n", d.Device, d.Pattern, d.At, d.Calls)
			}
		}
	}
	return sb.String()
}

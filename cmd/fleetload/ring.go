package main

// Ring mode: fleetload as the chaos harness for the multi-node sentry.
// With -ring N it spawns N sentryd peers (each with its own crash-safe
// detection journal) and one sentryrouter on ephemeral ports, replays
// the seeded fleet against the router, and — with -chaos — SIGKILLs a
// seeded sequence of peers mid-run and restarts each on the same
// address and store directory. After the replay it proves the plane's
// four distributed properties: merged detections match a single-node
// reference engine, the router's exclusive batch accounting is exact,
// /v1/flagged answers survive a SIGKILL-restart of every peer
// byte-identically, and a -swap rule change stamps post-swap
// detections with the new config version. Everything shuts down on
// SIGINT at the end; an unclean exit from any process fails the run.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/ringharness"
	"repro/internal/sentring"
	"repro/internal/sentry"
)

const probeDevice = "probe-swap"

// startRing spawns cfg.ring sentryd peers (each journaling to its own
// store directory) and the router, returning the router's base URL.
func startRing(cfg config) (*ringharness.Harness, string, error) {
	return ringharness.Start(ringharness.Config{
		Tool:       "fleetload",
		Seed:       cfg.seed,
		Peers:      cfg.ring,
		StoreDir:   cfg.storeDir,
		PeerBin:    cfg.sentrydBin,
		PeerName:   "sentryd",
		PeerArgs:   []string{"-queue", "256"},
		RouterBin:  cfg.routerBin,
		RouterName: "sentryrouter",
		RouterArgs: []string{"-replicas", strconv.Itoa(cfg.replicas), "-net-faults", cfg.netFaults,
			"-net-seed", strconv.FormatInt(cfg.netSeed, 10), "-seed", strconv.FormatInt(cfg.seed, 10)},
	})
}

// swapUpdate is the mid-run rule change: detection-equivalent on the
// generated fleet (every planted attacker still clears the tightened
// thresholds; no benign class reaches them), so the single-node
// reference comparison stays exact across the swap.
func swapUpdate() sentry.ConfigUpdate {
	eng, err := sentry.NewEngine(sentry.Config{})
	if err != nil {
		panic(err) // the default config always constructs
	}
	u := eng.ConfigSnapshot()
	u.Version = 0
	u.MinCalls = 10
	u.MinSwaps = 5
	u.NotifFlood = 35
	return u
}

// probeRecords is the post-swap draw-and-destroy stream: its detection
// must carry the swapped config version.
func probeRecords() []sentry.Record {
	var recs []sentry.Record
	for i := 0; i < 12; i++ {
		at := time.Duration(i) * 6 * time.Millisecond
		recs = append(recs,
			sentry.Record{Device: probeDevice, Seq: uint64(2 * i), Method: sentry.MethodAddView, At: at},
			sentry.Record{Device: probeDevice, Seq: uint64(2*i + 1), Method: sentry.MethodRemoveView, At: at + 3*time.Millisecond},
		)
	}
	return recs
}

// runRing drives the full multi-node scenario.
func runRing(cfg config, fl *sentry.Fleet) int {
	h, base, err := startRing(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetload: ring: %v\n", err)
		return 1
	}
	ok := false
	defer func() {
		if !ok {
			h.KillAll()
		}
	}()
	client := &http.Client{Timeout: 15 * time.Second}

	fmt.Printf("fleetload: replaying %d devices (%d records) through %s (ring %d, replicas %d, chaos %v x%d)\n",
		len(fl.Devices), fl.Records(), base, cfg.ring, cfg.replicas, cfg.chaos, cfg.chaosKills)
	if cfg.chaos > 0 {
		h.StartChaos(cfg.chaos, cfg.chaosKills)
	}
	rs := sentry.ReplayFleet(client, base, fl, sentry.ReplayOptions{
		Clients: cfg.clients, Batch: cfg.batch, Retry429: cfg.retry429, Seed: cfg.seed,
	})
	if cfg.chaos > 0 {
		h.WaitChaos(60 * time.Second)
		fmt.Printf("fleetload: chaos complete: %d kill/restart cycles\n", h.Kills())
		if h.Kills() < cfg.chaosKills {
			fmt.Fprintf(os.Stderr, "fleetload: chaos ran only %d of %d cycles\n", h.Kills(), cfg.chaosKills)
			return 1
		}
	}
	if rs.Errors > 0 {
		fmt.Fprintf(os.Stderr, "fleetload: %d replay errors (first: %s)\n", rs.Errors, rs.FirstError)
		return 1
	}

	// Mid-run (post-chaos) rule swap: every peer is alive, so the fan-out
	// must reach the full ring synchronously.
	swapU := swapUpdate()
	if cfg.swap {
		if err := postSwap(client, base, cfg.ring, swapU); err != nil {
			fmt.Fprintf(os.Stderr, "fleetload: swap: %v\n", err)
			return 1
		}
		if err := replayProbe(client, base, cfg.batch); err != nil {
			fmt.Fprintf(os.Stderr, "fleetload: probe replay: %v\n", err)
			return 1
		}
		fl.Truth[probeDevice] = sentry.PatternDrawAndDestroy
	}

	snap, err := fetchReport(client, base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetload: fetch report: %v\n", err)
		return 1
	}
	fmt.Print(sentry.RenderFleetReport(snap, fl, rs))

	// Single-node reference: the same streams through one bare engine
	// must flag exactly the same devices with the same patterns —
	// detection is a pure function of the device stream, and neither
	// sharding, replication, crashes nor the rule swap may change it.
	refSnap, err := referenceSnapshot(cfg, fl, swapU)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetload: reference engine: %v\n", err)
		return 1
	}
	if n := detectionMismatches(snap, refSnap); n > 0 {
		fmt.Fprintf(os.Stderr, "fleetload: %d detection mismatches vs single-node reference\n", n)
		return 1
	}
	fmt.Printf("fleetload: detections match the single-node reference (%d devices flagged)\n", snap.Detected)

	// Router-side exclusive accounting.
	if err := checkRouterAccounting(client, base); err != nil {
		fmt.Fprintf(os.Stderr, "fleetload: %v\n", err)
		return 1
	}

	// Config-version stamping: post-swap detections carry the swapped
	// version; pre-swap ones keep the version that produced them.
	printVersionHistogram(snap)
	if cfg.swap {
		if err := checkProbeVersion(snap, swapU); err != nil {
			fmt.Fprintf(os.Stderr, "fleetload: %v\n", err)
			return 1
		}
	}

	// Flagged answers must survive a fleet-wide power cycle
	// byte-identically: every peer is SIGKILLed and restarted on its
	// journal, and the ring must answer history from recovered stores.
	before, err := fetchFlagged(client, base, fl)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetload: flagged (pre-restart): %v\n", err)
		return 1
	}
	if err := h.RestartPeers(); err != nil {
		fmt.Fprintf(os.Stderr, "fleetload: %v\n", err)
		return 1
	}
	after, err := fetchFlagged(client, base, fl)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetload: flagged (post-restart): %v\n", err)
		return 1
	}
	for dev, want := range before {
		if !bytes.Equal(after[dev], want) {
			fmt.Fprintf(os.Stderr, "fleetload: flagged answer for %s changed across the power cycle:\n  pre:  %s\n  post: %s\n",
				dev, want, after[dev])
			return 1
		}
	}
	fmt.Printf("fleetload: %d flagged answers byte-stable across a fleet-wide SIGKILL restart\n", len(before))

	if code := conform(cfg, snap, fl); code != 0 {
		return code
	}
	if err := h.Shutdown(); err != nil {
		fmt.Fprintf(os.Stderr, "fleetload: shutdown: %v\n", err)
		return 1
	}
	ok = true
	fmt.Println("fleetload: ring run complete: clean exits all around")
	return 0
}

// postSwap applies the rule swap at the router and requires the fan-out
// to reach every peer.
func postSwap(client *http.Client, base string, peers int, u sentry.ConfigUpdate) error {
	body, err := u.Encode()
	if err != nil {
		return err
	}
	resp, err := client.Post(base+"/v1/config", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	var fan sentring.ConfigFanout
	if err := json.Unmarshal(raw, &fan); err != nil {
		return err
	}
	if fan.PeersAcked != peers {
		return fmt.Errorf("config fan-out reached %d of %d peers", fan.PeersAcked, peers)
	}
	fmt.Printf("fleetload: rules swapped to version %d (%d/%d peers acked)\n", fan.Version, fan.PeersAcked, fan.Peers)
	return nil
}

// replayProbe streams the post-swap probe device through the router.
func replayProbe(client *http.Client, base string, batch int) error {
	recs := probeRecords()
	if batch < 1 {
		batch = len(recs)
	}
	for start := 0; start < len(recs); start += batch {
		end := start + batch
		if end > len(recs) {
			end = len(recs)
		}
		body, err := sentry.EncodeBatch(recs[start:end])
		if err != nil {
			return err
		}
		resp, err := client.Post(base+"/v1/ingest?device="+probeDevice, "text/plain", bytes.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("probe batch: status %d", resp.StatusCode)
		}
	}
	return nil
}

// referenceSnapshot replays the whole scenario through one bare engine.
func referenceSnapshot(cfg config, fl *sentry.Fleet, swapU sentry.ConfigUpdate) (sentry.Snapshot, error) {
	ref, err := sentry.NewEngine(sentry.Config{})
	if err != nil {
		return sentry.Snapshot{}, err
	}
	for _, d := range fl.Devices {
		if d.ID == probeDevice {
			continue // replayed post-swap below
		}
		if _, err := ref.Ingest(d.ID, d.Records); err != nil {
			return sentry.Snapshot{}, fmt.Errorf("%s: %w", d.ID, err)
		}
	}
	if cfg.swap {
		if _, err := ref.ApplyConfig(swapU); err != nil {
			return sentry.Snapshot{}, err
		}
		if _, err := ref.Ingest(probeDevice, probeRecords()); err != nil {
			return sentry.Snapshot{}, err
		}
	}
	return ref.Snapshot(), nil
}

// detectionMismatches compares flagged device→pattern maps. Detection
// content (At, Calls) can legitimately differ across crash/recovery
// timing; which devices are flagged, and for what, cannot.
func detectionMismatches(got, want sentry.Snapshot) int {
	gm := make(map[string]string, len(got.Detections))
	for _, d := range got.Detections {
		gm[d.Device] = d.Pattern
	}
	wm := make(map[string]string, len(want.Detections))
	for _, d := range want.Detections {
		wm[d.Device] = d.Pattern
	}
	n := 0
	for dev, p := range gm {
		if wm[dev] != p {
			fmt.Fprintf(os.Stderr, "fleetload: mismatch: %s flagged %q, reference %q\n", dev, p, wm[dev])
			n++
		}
	}
	for dev, p := range wm {
		if _, ok := gm[dev]; !ok {
			fmt.Fprintf(os.Stderr, "fleetload: mismatch: %s missing (reference flagged %q)\n", dev, p)
			n++
		}
	}
	return n
}

// checkRouterAccounting fetches the router's /stats and enforces the
// exclusive batch classification identities.
func checkRouterAccounting(client *http.Client, base string) error {
	resp, err := client.Get(base + "/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var st sentring.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}
	if st.Service != "sentryrouter" {
		return fmt.Errorf("stats service %q, want sentryrouter", st.Service)
	}
	if st.Routed+st.Degraded+st.Sheds+st.Failed != st.Batches {
		return fmt.Errorf("ROUTER ACCOUNTING VIOLATION: routed %d + degraded %d + shed %d + failed %d != batches %d",
			st.Routed, st.Degraded, st.Sheds, st.Failed, st.Batches)
	}
	if st.Batches+st.BadBatches+st.RefusedBatches != st.IngestCalls {
		return fmt.Errorf("ROUTER ACCOUNTING VIOLATION: batches %d + bad %d + refused %d != calls %d",
			st.Batches, st.BadBatches, st.RefusedBatches, st.IngestCalls)
	}
	fmt.Printf("fleetload: router accounting exact: %d batches = %d routed + %d degraded + %d shed + %d failed (retries %d, dup acks %d)\n",
		st.Batches, st.Routed, st.Degraded, st.Sheds, st.Failed, st.Retries, st.DupAcks)
	return nil
}

// printVersionHistogram summarizes which rule-set version produced each
// detection.
func printVersionHistogram(snap sentry.Snapshot) {
	hist := map[uint64]int{}
	for _, d := range snap.Detections {
		hist[d.ConfigVersion]++
	}
	versions := make([]uint64, 0, len(hist))
	for v := range hist {
		versions = append(versions, v)
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })
	parts := make([]string, len(versions))
	for i, v := range versions {
		parts[i] = fmt.Sprintf("v%d:%d", v, hist[v])
	}
	fmt.Printf("fleetload: detections by config version: %s\n", strings.Join(parts, " "))
}

// checkProbeVersion requires the post-swap probe detection to carry the
// swapped version.
func checkProbeVersion(snap sentry.Snapshot, swapU sentry.ConfigUpdate) error {
	for _, d := range snap.Detections {
		if d.Device != probeDevice {
			continue
		}
		if d.ConfigVersion < 2 {
			return fmt.Errorf("post-swap probe detection carries config version %d, want the swapped version", d.ConfigVersion)
		}
		return nil
	}
	return fmt.Errorf("post-swap probe device %s not detected", probeDevice)
}

// fetchFlagged pulls the /v1/flagged answer bytes for every planted
// attack device (the history a restarted ring must reproduce exactly).
func fetchFlagged(client *http.Client, base string, fl *sentry.Fleet) (map[string][]byte, error) {
	devices := make([]string, 0, len(fl.Truth))
	for dev := range fl.Truth {
		devices = append(devices, dev)
	}
	sort.Strings(devices)
	out := make(map[string][]byte, len(devices))
	for _, dev := range devices {
		resp, err := client.Get(base + "/v1/flagged?device=" + dev)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", dev, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", dev, err)
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%s: status %d: %s", dev, resp.StatusCode, body)
		}
		out[dev] = body
	}
	return out, nil
}

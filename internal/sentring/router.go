// Package sentring is the distributed serving plane for the streaming
// detection service: a device-ID consistent-hash ingest router
// (cmd/sentryrouter) that shards the fleet across N sentryd peers with
// R-way batch replication, plus the failure machinery that keeps the
// plane answering while peers die — per-attempt deadlines, bounded
// retries with seeded backoff, per-peer circuit breakers fed by
// background /readyz probes, and graceful degradation to a local
// detection engine when every replica for a device is unreachable.
//
// Detection safety is structural, not best-effort: a detection is a
// pure function of the device's own record stream, so replicating a
// batch to R peers can never produce a wrong flag — only R consistent
// ones. The router therefore classifies every batch into exactly one of
// routed / degraded / shed / failed (the accounting identity
// cmd/fleetload enforces under chaos), merges the peers' per-device
// accounting rows into one exact fleet-wide /v1/report, proxies
// /v1/flagged to the device's replicas, and fans /v1/config rule swaps
// to every peer — re-pushing the active config when a probe sees a
// restarted peer come back, so a node that lost its in-memory rules
// heals to the ring's version without operator action.
//
// The network fault plane (netfaults.Plane) plugs in beneath the HTTP
// clients as a per-peer RoundTripper, so request drops, latency spikes,
// 5xx storms and partitions are injected between router and peer with
// seeded determinism while the router code under test is byte-identical
// to production.
//
// The failure machinery is internal/ring's serving core; this package is
// its write specialization: a batch goes to every replica, a 409 after
// a transport error counts as a duplicate ack, the local fallback is a
// sentry.Engine, and a probe's failed→ok transition re-pushes the
// active config.
//
// sentring is a wall-clock serving package (simlint's ServingPackages
// allowlist): deadlines, backoff and breaker cooldowns are real time,
// but every detection decision stays virtual-time pure on the peers.
package sentring

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/netfaults"
	"repro/internal/ring"
	"repro/internal/sentry"
)

// Config parameterizes a Router.
type Config struct {
	// Peers are the sentryd node addresses (host:port), in ring order.
	// The index of a peer in this slice is its identity for the fault
	// plane's partition sets.
	Peers []string
	// Replicas is the replica set size per device (default 2, clamped
	// to len(Peers)).
	Replicas int
	// VNodes is the number of virtual ring points per peer (default 64).
	VNodes int
	// Engine configures the local fallback detection engine — it must
	// match the peers' construction config, or degraded batches would be
	// judged under different rules.
	Engine sentry.Config

	// Deadline bounds each peer attempt (default 2s).
	Deadline time.Duration
	// Retries is the most extra full passes over the replica set after
	// the first (default 1). A retry pass runs only after a pass in
	// which some attempt failed or was shed (429); a replica skipped by
	// its open breaker is not retried, so a dead peer costs no backoff.
	// Between passes the router backs off exponentially with seeded
	// jitter.
	Retries int
	// RetryBase is the first inter-pass backoff (default 25ms); pass k
	// waits RetryBase<<(k-1), jittered ±50%. It is paid only when a
	// retry pass runs.
	RetryBase time.Duration

	// BreakerThreshold consecutive failures open a peer's circuit
	// (default 3); BreakerCooldown is the open→half-open delay (default
	// 1s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// ProbeInterval is the health-probe period per peer (default 250ms;
	// negative disables probing).
	ProbeInterval time.Duration

	// FallbackConcurrency bounds concurrent local degraded ingests
	// (default 4); beyond it the router sheds.
	FallbackConcurrency int
	// RetryAfter is the hint returned with 429 sheds (default 1s).
	RetryAfter time.Duration
	// MaxBodyBytes bounds request bodies (default 16 MiB).
	MaxBodyBytes int64

	// Seed feeds the backoff jitter stream (default 1).
	Seed int64
	// NetPlane, when non-nil, injects deterministic network faults
	// beneath the peer HTTP clients. Nil in production.
	NetPlane *netfaults.Plane
	// Transport overrides the base HTTP transport (tests); nil uses a
	// dedicated http.Transport per router.
	Transport http.RoundTripper
}

// Router is the ring front end, an http.Handler mirroring sentryd's API
// surface (POST /v1/ingest, GET /v1/report, GET /v1/flagged,
// POST /v1/config, GET /healthz, /readyz, /stats, /metrics) so clients
// cannot tell a node from the ring.
type Router struct {
	core *ring.Core
	// local is the fallback detection engine: it absorbs batches whose
	// replica set is entirely unreachable, and it is the version
	// authority for /v1/config fan-out.
	local *sentry.Engine
	mux   *http.ServeMux

	metrics Metrics

	// configMu serializes config fan-out; lastConfig is the active
	// update (version assigned) re-pushed to peers that come back.
	configMu   sync.Mutex
	lastConfig *sentry.ConfigUpdate
}

// New builds a Router over cfg.Peers and starts its health probes.
func New(cfg Config) (*Router, error) {
	local, err := sentry.NewEngine(cfg.Engine)
	if err != nil {
		return nil, err
	}
	r := &Router{local: local}
	core, err := ring.New(ring.Config{
		Name:                "sentring",
		Peers:               cfg.Peers,
		Replicas:            cfg.Replicas,
		VNodes:              cfg.VNodes,
		Deadline:            cfg.Deadline,
		Retries:             cfg.Retries,
		RetryBase:           cfg.RetryBase,
		Seed:                cfg.Seed,
		BreakerThreshold:    cfg.BreakerThreshold,
		BreakerCooldown:     cfg.BreakerCooldown,
		ProbeInterval:       cfg.ProbeInterval,
		FallbackConcurrency: cfg.FallbackConcurrency,
		RetryAfter:          cfg.RetryAfter,
		MaxBodyBytes:        cfg.MaxBodyBytes,
		NetPlane:            cfg.NetPlane,
		Transport:           cfg.Transport,
	}, &r.metrics.Counters)
	if err != nil {
		return nil, err
	}
	r.core = core
	r.mux = http.NewServeMux()
	r.mux.HandleFunc("POST /v1/ingest", r.handleIngest)
	r.mux.HandleFunc("GET /v1/report", r.handleReport)
	r.mux.HandleFunc("GET /v1/flagged", r.handleFlagged)
	r.mux.HandleFunc("POST /v1/config", r.handleConfig)
	core.Mount(r.mux, "sentryrouter", "Batches acked per peer.", func() any { return r.Snapshot() }, r.writeProm)
	// A SIGKILLed peer restarts at rule version 1; the probe that sees it
	// come back heals it to the ring's version.
	core.Start(r.repushConfig)
	return r, nil
}

// Close stops the health probes and refuses further ingests; in-flight
// requests finish normally.
func (r *Router) Close() { r.core.Close() }

// ServeHTTP implements http.Handler.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.mux.ServeHTTP(w, req)
}

// Ring exposes the placement function (tests and topology dumps).
func (r *Router) Ring() *ring.Ring { return r.core.Ring() }

// repushConfig sends the active config (if any swap happened) to a peer
// that just came back. Idempotent on the peer side: an equal re-push of
// the active version is a no-op, a restarted peer jumps forward.
func (r *Router) repushConfig(i int) {
	r.configMu.Lock()
	u := r.lastConfig
	r.configMu.Unlock()
	if u == nil {
		return
	}
	if err := r.pushConfig(context.Background(), i, *u); err != nil {
		r.metrics.ConfigPushErrs.Add(1)
	}
}

// handleIngest validates the batch, routes it to the device's replica
// set, and classifies it on exactly one batch-level counter — see the
// Metrics contract.
func (r *Router) handleIngest(w http.ResponseWriter, req *http.Request) {
	r.metrics.IngestCalls.Add(1)
	bad := func(msg string) {
		r.metrics.BadBatches.Add(1)
		r.core.WriteError(w, http.StatusBadRequest, msg)
	}
	device := req.URL.Query().Get("device")
	if !sentry.ValidToken(device) {
		bad(fmt.Sprintf("sentring: bad device %q", device))
		return
	}
	if r.core.Closed() {
		r.metrics.RefusedBatches.Add(1)
		r.core.WriteError(w, http.StatusServiceUnavailable, "sentring: shutting down")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, r.core.Config().MaxBodyBytes))
	if err != nil {
		bad("sentring: read body: " + err.Error())
		return
	}
	// Decode at the router so malformed batches never consume ring
	// capacity; the decoded records also feed the degraded fallback.
	recs, err := sentry.DecodeBatch(body)
	if err != nil {
		bad(err.Error())
		return
	}
	if len(recs) == 0 {
		bad("sentring: empty batch")
		return
	}
	r.metrics.Batches.Add(1)
	res := r.routeBatch(req.Context(), device, body, recs)
	if res.status != http.StatusOK {
		r.core.WriteError(w, res.status, res.errMsg)
		return
	}
	ring.WriteJSON(w, http.StatusOK, res.resp)
}

// routeResult is the classified outcome of one routed batch.
type routeResult struct {
	resp   sentry.IngestResponse
	status int    // HTTP status for the caller
	errMsg string // set when status != 200
}

// routeBatch replicates one device batch to its replica set: every
// replica whose breaker admits it gets the batch, a pass with a failed
// or shed attempt is retried with seeded backoff, and the batch counts
// Routed when at least one replica acked. A 409 after a transport error
// on the same peer is a duplicate ack — the peer applied the batch but
// the response was lost, and its strict sequence check refused the
// re-send without applying anything twice. A 409 with no preceding
// transport error is a genuine stream conflict and is propagated. With
// zero acks the batch falls back to the local engine: absorbed →
// Degraded, fallback saturated → Shed, fallback error → Failed.
func (r *Router) routeBatch(ctx context.Context, device string, body []byte, recs []sentry.Record) routeResult {
	replicas := r.core.Ring().Replicas(device)
	maybeSent := make(map[int]bool, len(replicas))
	var okResp *sentry.IngestResponse
	var conflict string
	acks, aborted := r.core.Replicate(ctx, replicas, len(replicas), func(ctx context.Context, i int) ring.Outcome {
		var ir sentry.IngestResponse
		var errMsg string
		status, err := r.core.Call(ctx, i, "POST", "/v1/ingest?device="+device, "text/plain", body, func(status int, rd io.Reader) error {
			if status != http.StatusOK {
				var er ring.ErrorResponse
				json.NewDecoder(rd).Decode(&er)
				errMsg = er.Error
				return nil
			}
			if err := json.NewDecoder(rd).Decode(&ir); err != nil {
				return fmt.Errorf("decode peer response: %w", err)
			}
			return nil
		})
		switch {
		case err != nil:
			maybeSent[i] = true
		case status == http.StatusOK:
			r.metrics.Acks.Add(1)
			if okResp == nil {
				okResp = &ir
			}
		case status == http.StatusConflict && maybeSent[i]:
			// Retry race: an earlier attempt reached the peer but its
			// response was lost; the strict sequence check acknowledges
			// the duplicate without double-applying.
			r.metrics.DupAcks.Add(1)
			return ring.Ack
		case status == http.StatusConflict:
			// Genuine stream conflict: every replica will refuse it the
			// same way.
			conflict = errMsg
			return ring.Abort
		}
		return ring.Classify(status, err)
	})
	switch {
	case aborted:
		r.metrics.Failed.Add(1)
		return routeResult{status: http.StatusConflict, errMsg: conflict}
	case acks == 0:
		return r.fallback(ctx, device, recs)
	}
	r.metrics.Routed.Add(1)
	if okResp == nil {
		// Every ack was a duplicate 409: the batch is applied ring-side,
		// only this round trip's body was lost.
		okResp = &sentry.IngestResponse{Device: device}
	}
	return routeResult{resp: *okResp, status: http.StatusOK}
}

// fallback absorbs the batch into the local engine when every replica
// is unreachable, under the core's fallback rule, stamped Degraded —
// the plane keeps detecting but admits it routed nothing.
func (r *Router) fallback(ctx context.Context, device string, recs []sentry.Record) routeResult {
	var res routeResult
	err := r.core.Fallback(ctx, func() {
		r.metrics.FallbackIngests.Add(1)
		n, err := r.local.Ingest(device, recs)
		if err != nil {
			r.metrics.Failed.Add(1)
			res = routeResult{status: http.StatusConflict, errMsg: fmt.Sprintf("fallback applied %d: %v", n, err)}
			return
		}
		r.metrics.Degraded.Add(1)
		res = routeResult{
			resp:   sentry.IngestResponse{Device: device, Records: n, Detected: r.local.Detected(device), Degraded: true},
			status: http.StatusOK,
		}
	})
	if err != nil {
		r.local.MarkShed(device)
		return routeResult{status: http.StatusTooManyRequests, errMsg: err.Error()}
	}
	return res
}

// fetchPeerSnapshot pulls peer i's /v1/report.
func (r *Router) fetchPeerSnapshot(ctx context.Context, i int) (sentry.Snapshot, error) {
	var snap sentry.Snapshot
	status, err := r.core.Call(ctx, i, "GET", "/v1/report", "", nil, func(status int, rd io.Reader) error {
		if status != http.StatusOK {
			return nil
		}
		if err := json.NewDecoder(rd).Decode(&snap); err != nil {
			return fmt.Errorf("peer %s report: %w", r.core.PeerName(i), err)
		}
		return nil
	})
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("peer %s report: status %d", r.core.PeerName(i), status)
	}
	return snap, err
}

// MergedSnapshot assembles the fleet-wide accounting from every
// reachable peer's per-device rows plus the local fallback engine.
//
// Each device's canonical row comes from the first source in its ring
// preference order (its replica set, then the remaining peers, then the
// local engine) that reported it — under full replication every replica
// holds an identical row, so a healthy merged report is byte-identical
// to a single node's. Status merges with detected-anywhere-wins, then
// shed-anywhere, then clean (the engine's own precedence), so a
// detection that fired on any replica survives the others' crashes.
// Totals are recomputed from the merged rows; the exclusive accounting
// identity holds by construction.
func (r *Router) MergedSnapshot(ctx context.Context) sentry.Snapshot {
	// rows[i] holds peer i's per-device rows (nil when unreachable);
	// the local engine's come last.
	peers := r.core.Ring().Peers()
	rows := make([]map[string]sentry.DeviceAccount, len(peers)+1)
	devices := make(map[string]bool)
	add := func(i int, snap sentry.Snapshot) {
		rows[i] = make(map[string]sentry.DeviceAccount, len(snap.Devices))
		for _, row := range snap.Devices {
			rows[i][row.Device] = row
			devices[row.Device] = true
		}
	}
	for i := range peers {
		if snap, err := r.fetchPeerSnapshot(ctx, i); err == nil {
			add(i, snap)
		}
	}
	add(len(peers), r.local.Snapshot())

	var merged []sentry.DeviceAccount
	for dev := range devices {
		// Preference order: the device's replica set, then every other
		// peer (a ring reconfiguration could have moved it), then local.
		pref := r.core.Ring().Replicas(dev)
		for pi := range peers {
			if !slices.Contains(pref, pi) {
				pref = append(pref, pi)
			}
		}
		pref = append(pref, len(peers))

		var row sentry.DeviceAccount
		var detection *sentry.Detection
		found, shed := false, false
		for _, si := range pref {
			r, ok := rows[si][dev]
			if !ok {
				continue
			}
			if !found {
				row, found = r, true
			}
			if detection == nil && r.Status == "detected" {
				detection = r.Detection
			}
			shed = shed || r.Status == "shed"
		}
		switch {
		case detection != nil:
			row.Status, row.Detection = "detected", detection
		case shed:
			row.Status, row.Detection = "shed", nil
		default:
			row.Status, row.Detection = "clean", nil
		}
		merged = append(merged, row)
	}
	return sentry.NewSnapshot("sentryrouter", merged)
}

func (r *Router) handleReport(w http.ResponseWriter, req *http.Request) {
	ring.WriteJSON(w, http.StatusOK, r.MergedSnapshot(req.Context()))
}

// handleFlagged proxies "was this device ever flagged" to the device's
// replicas in preference order, returning the first flagged replica's
// response bytes verbatim — so the answer a restarted peer recovers
// from its journal reaches the client byte-identically through the
// ring. An unflagged 200 is kept as the fallback answer; the local
// engine is consulted last.
func (r *Router) handleFlagged(w http.ResponseWriter, req *http.Request) {
	device := req.URL.Query().Get("device")
	if !sentry.ValidToken(device) {
		r.core.WriteError(w, http.StatusBadRequest, fmt.Sprintf("sentring: bad device %q", device))
		return
	}
	var unflagged []byte
	for _, pi := range r.core.Ring().Replicas(device) {
		body, flagged, err := r.tryFlagged(req.Context(), pi, device)
		if err != nil {
			continue
		}
		if flagged {
			w.Header().Set("Content-Type", "application/json")
			w.Write(body)
			return
		}
		if unflagged == nil {
			unflagged = body
		}
	}
	if d, ok := r.local.DetectionFor(device); ok {
		ring.WriteJSON(w, http.StatusOK, sentry.FlaggedResponse{Device: device, Flagged: true, Detection: &d})
		return
	}
	if unflagged != nil {
		w.Header().Set("Content-Type", "application/json")
		w.Write(unflagged)
		return
	}
	r.core.WriteError(w, http.StatusBadGateway, "sentring: no replica answered")
}

func (r *Router) tryFlagged(ctx context.Context, i int, device string) ([]byte, bool, error) {
	var body []byte
	status, err := r.core.Call(ctx, i, "GET", "/v1/flagged?device="+device, "", nil, func(_ int, rd io.Reader) (err error) {
		body, err = io.ReadAll(rd)
		return err
	})
	if err != nil {
		return nil, false, err
	}
	if status != http.StatusOK {
		return nil, false, fmt.Errorf("peer %s flagged: status %d", r.core.PeerName(i), status)
	}
	var fr sentry.FlaggedResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		return nil, false, err
	}
	return body, fr.Flagged, nil
}

// ConfigFanout is the POST /v1/config response on the router: the
// version now active and how many peers took it synchronously. Peers
// that missed the fan-out (down, partitioned) are healed by the probe
// loop's re-push when they come back.
type ConfigFanout struct {
	Version    uint64 `json:"version"`
	PeersAcked int    `json:"peers_acked"`
	Peers      int    `json:"peers"`
}

// handleConfig swaps the ring's detection rule set: the local fallback
// engine is the version authority (it assigns the version under
// configMu), then the stamped update fans out to every peer. 400 =
// invalid update, 409 = stale or conflicting version; neither touches
// any engine.
func (r *Router) handleConfig(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, r.core.Config().MaxBodyBytes))
	if err != nil {
		r.core.WriteError(w, http.StatusBadRequest, "sentring: read body: "+err.Error())
		return
	}
	u, err := sentry.ParseConfigUpdate(body)
	if err != nil {
		r.core.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	r.configMu.Lock()
	v, err := r.local.ApplyConfig(u)
	if err != nil {
		r.configMu.Unlock()
		status := http.StatusBadRequest
		if u.Validate() == nil {
			status = http.StatusConflict
		}
		r.core.WriteError(w, status, err.Error())
		return
	}
	u.Version = v
	uc := u
	r.lastConfig = &uc
	r.configMu.Unlock()

	acked, peers := 0, len(r.core.Ring().Peers())
	for i := 0; i < peers; i++ {
		if err := r.pushConfig(req.Context(), i, u); err != nil {
			r.metrics.ConfigPushErrs.Add(1)
			continue
		}
		acked++
	}
	ring.WriteJSON(w, http.StatusOK, ConfigFanout{Version: v, PeersAcked: acked, Peers: peers})
}

// pushConfig sends one stamped config update to peer i.
func (r *Router) pushConfig(ctx context.Context, i int, u sentry.ConfigUpdate) error {
	r.metrics.ConfigPushes.Add(1)
	body, err := u.Encode()
	if err != nil {
		return err
	}
	status, err := r.core.Call(ctx, i, "POST", "/v1/config", "application/json", body, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("peer %s config: status %d", r.core.PeerName(i), status)
	}
	return nil
}

// Metrics exposes the counter block (tests).
func (r *Router) Metrics() *Metrics { return &r.metrics }

// Package netfaults is the serving network's fault plane: named
// profiles of per-request faults (loss, latency spikes, 5xx storms,
// partitions) and the seeded Plane that decides each routed attempt's
// fate. internal/ring enacts those decisions beneath its peer clients;
// the simulator's fault plane (internal/faults) is a separate package,
// so the serving stack links no simulator code.
package netfaults

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/simrand"
)

// Profile is one named mix of per-request fault classes injected
// between a ring router and its peers. The zero value injects nothing. Probabilities are
// per request attempt (retries are fresh opportunities — exactly how a
// lossy network treats them).
type Profile struct {
	// Name labels the profile in reports.
	Name string

	// DropProb loses the request in transit: the caller sees a transport
	// error (connection reset), never a response. Models packet loss and
	// peer crashes mid-request.
	DropProb float64

	// LatencyProb adds a Latency-sampled spike (milliseconds) before the
	// request is forwarded — slow peers, congested links.
	LatencyProb float64
	Latency     simrand.Dist

	// ErrorProb replaces the response with a synthesized 503 — the 5xx
	// storm of an overloaded or restarting peer.
	ErrorProb float64

	// PartitionPeers lists peer indices that are fully unreachable: every
	// request to them fails with a transport error, deterministically and
	// without consuming a draw. PartitionAll partitions the whole ring.
	PartitionPeers []int
	PartitionAll   bool
}

// Zero reports whether the profile injects nothing at all.
func (p Profile) Zero() bool {
	return p.DropProb <= 0 && p.LatencyProb <= 0 && p.ErrorProb <= 0 &&
		len(p.PartitionPeers) == 0 && !p.PartitionAll
}

// profiles are the named network profiles.
var profiles = map[string]Profile{
	"none": {Name: "none"},
	// drop loses a tenth of all request attempts in transit.
	"drop": {Name: "drop", DropProb: 0.10},
	// slow spikes latency on a quarter of attempts: enough pressure to
	// exercise per-request deadlines and retry budgets without making
	// every request late.
	"slow": {Name: "slow", LatencyProb: 0.25, Latency: simrand.NormalDist(40, 15)},
	// storm is a 5xx storm: a fifth of attempts answer 503, the
	// signature of peers thrashing through restarts.
	"storm": {Name: "storm", ErrorProb: 0.20},
	// partition cuts off peer 0 entirely; the router must fail over to
	// the remaining replicas for every key that hashes there.
	"partition": {Name: "partition", PartitionPeers: []int{0}},
	// blackout partitions the whole ring: every routed request fails,
	// so every answer must come from the router's local fallback.
	"blackout": {Name: "blackout", PartitionAll: true},
	// chaos combines loss, latency and 5xx pressure at moderate rates.
	"chaos": {Name: "chaos", DropProb: 0.03, LatencyProb: 0.10, Latency: simrand.NormalDist(40, 15), ErrorProb: 0.05},
}

// ByName resolves a named network profile (see Names).
func ByName(name string) (Profile, error) {
	p, ok := profiles[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		return Profile{}, fmt.Errorf("netfaults: unknown profile %q (have %s)", name, strings.Join(Names(), ", "))
	}
	p.PartitionPeers = slices.Clone(p.PartitionPeers)
	return p, nil
}

// Names lists the named network profiles in sorted order.
func Names() []string {
	out := make([]string, 0, len(profiles))
	for n := range profiles {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Stats counts the network faults a Plane actually injected.
type Stats struct {
	Dropped     uint64
	Delayed     uint64
	DelayTotal  time.Duration
	Errored     uint64
	Partitioned uint64
}

// Zero reports whether no faults were injected.
func (s Stats) Zero() bool { return s == (Stats{}) }

// String renders the non-zero counters on one line.
func (s Stats) String() string {
	var parts []string
	add := func(name string, v uint64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", name, v))
		}
	}
	add("drop", s.Dropped)
	add("delay", s.Delayed)
	add("error", s.Errored)
	add("partition", s.Partitioned)
	if len(parts) == 0 {
		return "no net faults injected"
	}
	return strings.Join(parts, " ")
}

// Fault is the fate of one request attempt. The zero value lets the
// request through untouched.
type Fault struct {
	// Drop fails the attempt with a transport error before any response.
	Drop bool
	// Delay stalls the attempt before it is forwarded.
	Delay time.Duration
	// Status, when nonzero, replaces the response with this HTTP status.
	Status int
}

// Plane decides the fate of routed requests. Unlike the simulator's
// fault plane it is safe for concurrent use — router requests race —
// so draws are serialized under a mutex. Fault placement across concurrent
// requests therefore depends on arrival order, but the determinism that
// matters is preserved: a zero profile consumes no draws and injects
// nothing (strict no-op), partitions are draw-free pure functions of the
// peer index, and a single-threaded replay reproduces faults byte for
// byte from the seed.
type Plane struct {
	prof        Profile
	partitioned map[int]bool

	mu      sync.Mutex
	dropRng *simrand.Source
	latRng  *simrand.Source
	errRng  *simrand.Source
	stats   Stats
}

// NewPlane builds a Plane for profile p from its own seed,
// independent of every other component's stream.
func NewPlane(p Profile, seed int64) *Plane {
	root := simrand.New(seed)
	part := make(map[int]bool, len(p.PartitionPeers))
	for _, i := range p.PartitionPeers {
		part[i] = true
	}
	return &Plane{
		prof:        p,
		partitioned: part,
		dropRng:     root.Derive("faults/net/drop"),
		latRng:      root.Derive("faults/net/latency"),
		errRng:      root.Derive("faults/net/error"),
	}
}

// Stats reports the network faults injected so far.
func (pl *Plane) Stats() Stats {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.stats
}

// Partitioned reports whether requests to peer index i are cut off. It
// consumes no draws: partitions are topology, not chance.
func (pl *Plane) Partitioned(i int) bool {
	return pl.prof.PartitionAll || pl.partitioned[i]
}

// RequestFault decides the fate of one attempt against peer index i.
// Partitioned peers fail deterministically without a draw; otherwise
// each enabled class draws from its private stream (a class with zero
// probability consumes nothing). A dropped attempt short-circuits the
// remaining classes — there is no response left to delay or replace.
func (pl *Plane) RequestFault(i int) Fault {
	var f Fault
	if pl.Partitioned(i) {
		pl.mu.Lock()
		pl.stats.Partitioned++
		pl.mu.Unlock()
		f.Drop = true
		return f
	}
	p := pl.prof
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if p.DropProb > 0 && pl.dropRng.Bool(p.DropProb) {
		pl.stats.Dropped++
		f.Drop = true
		return f
	}
	if p.LatencyProb > 0 && pl.latRng.Bool(p.LatencyProb) {
		d := p.Latency.Sample(pl.latRng)
		if d > 0 {
			pl.stats.Delayed++
			pl.stats.DelayTotal += d
			f.Delay = d
		}
	}
	if p.ErrorProb > 0 && pl.errRng.Bool(p.ErrorProb) {
		pl.stats.Errored++
		f.Status = 503
	}
	return f
}

// Package faults is a deterministic fault-injection plane for the
// simulated Android stack. A Plane is built from a named Profile and its
// own seed, and is threaded through the layers as a set of narrow hooks:
// binder latency spikes, transaction drops and duplication, delivery
// reordering pressure (binder.Bus), frame drops and jitter on the 10 ms
// animation clock (anim), scheduler preemption pauses on the attacker
// thread (core), and toast-queue overflow pressure (sysserver).
//
// Determinism contract: all randomness flows through simrand sub-streams
// private to the Plane, drawn in event order on the single-threaded
// simulation clock — same seed and same profile therefore reproduce the
// same faults byte for byte. A hook whose fault class has zero probability
// returns the zero fault WITHOUT consuming a draw, so a Plane built from a
// zero profile is a strict no-op: attaching it perturbs neither the event
// schedule nor any other component's random stream.
package faults

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/binder"
	"repro/internal/simrand"
)

// Profile describes one named mix of fault classes. The zero value injects
// nothing. Probabilities are per opportunity: per transaction for the
// binder classes, per scheduled frame for the anim classes, per timer
// re-arm for preemption, per pump tick for toast pressure.
type Profile struct {
	// Name labels the profile in reports.
	Name string

	// Binder plane: DropProb discards a transaction after it is assigned
	// an id (the caller still sees success — oneway semantics), DupProb
	// delivers it twice, SpikeProb adds a Spike-sampled latency to the
	// delivery, ReorderProb adds a ReorderDelay-sampled holding delay that
	// lets calls on other streams overtake (per-stream FIFO is preserved
	// by the bus, so this models cross-stream reordering pressure).
	DropProb     float64
	DupProb      float64
	SpikeProb    float64
	Spike        simrand.Dist
	ReorderProb  float64
	ReorderDelay simrand.Dist

	// Animation plane: FrameDropProb skips one frame slot entirely,
	// FrameJitterProb shifts the next frame by a FrameJitter-sampled
	// amount off the 10 ms grid.
	FrameDropProb   float64
	FrameJitterProb float64
	FrameJitter     simrand.Dist

	// Scheduler plane: PreemptProb stalls the attacker's next timer
	// re-arm by a Preempt-sampled pause (GC pause / priority inversion).
	PreemptProb float64
	Preempt     simrand.Dist

	// Toast plane: with ToastBurstProb per pump tick, a noise app
	// enqueues a burst of 1..ToastBurstMax toasts, pressuring the
	// system_server toast queue toward its 50-token cap.
	ToastBurstProb float64
	ToastBurstMax  int

	// Thermal plane: sustained-load throttling that drifts frame times.
	// With probability ThermalProb — decided once per run, on the first
	// scheduled frame — the device throttles: the first
	// ThermalOnsetFrames frames render on time, then a per-frame drift
	// ramps linearly over the next ThermalRampFrames frames up to a
	// ThermalMaxDrift-sampled ceiling and stays there. Frames are the
	// unit (not wall time) because the hook fires once per scheduled
	// frame; at the 10 ms grid, 100 frames ≈ 1 s of sustained animation
	// load.
	ThermalProb        float64
	ThermalOnsetFrames int
	ThermalRampFrames  int
	ThermalMaxDrift    simrand.Dist

	// Burst gate: a seeded two-state (quiet/burst) Markov chain, stepped
	// once per binder transaction, that correlates the drop and dup
	// classes into bursts. With BurstEnterProb > 0 the gate is enabled:
	// DropProb and DupProb then apply only while the chain is in its
	// burst state, entered with probability BurstEnterProb per quiet
	// transaction and left with probability BurstExitProb per burst
	// transaction (mean burst length 1/BurstExitProb transactions). With
	// BurstEnterProb = 0 the gate is absent and drop/dup behave exactly
	// as before — uncorrelated per-transaction coin flips. The gate draws
	// from its own private sub-stream, so enabling it never perturbs the
	// draws of any other fault class.
	BurstEnterProb float64
	BurstExitProb  float64
}

// Zero reports whether the profile injects nothing at all.
func (p Profile) Zero() bool {
	return p.DropProb <= 0 && p.DupProb <= 0 && p.SpikeProb <= 0 &&
		p.ReorderProb <= 0 && p.FrameDropProb <= 0 && p.FrameJitterProb <= 0 &&
		p.PreemptProb <= 0 && (p.ToastBurstProb <= 0 || p.ToastBurstMax <= 0) &&
		p.ThermalProb <= 0
}

// Scale returns a copy with every probability multiplied by x (clamped to
// [0,1]); fault magnitudes (the Dists, the toast burst size, and
// BurstExitProb — the reciprocal of the mean binder-burst length) are
// unchanged. Scale(0) is a zero profile; Scale(1) is p itself.
func (p Profile) Scale(x float64) Profile {
	if x < 0 {
		x = 0
	}
	mul := func(pr float64) float64 {
		v := pr * x
		if v > 1 {
			v = 1
		}
		return v
	}
	q := p
	q.DropProb = mul(p.DropProb)
	q.DupProb = mul(p.DupProb)
	q.SpikeProb = mul(p.SpikeProb)
	q.ReorderProb = mul(p.ReorderProb)
	q.FrameDropProb = mul(p.FrameDropProb)
	q.FrameJitterProb = mul(p.FrameJitterProb)
	q.PreemptProb = mul(p.PreemptProb)
	q.ToastBurstProb = mul(p.ToastBurstProb)
	q.BurstEnterProb = mul(p.BurstEnterProb)
	q.ThermalProb = mul(p.ThermalProb)
	return q
}

// None is the empty profile: the plane compiles in but injects nothing.
func None() Profile { return Profile{Name: "none"} }

// BinderStress exercises the IPC plane: drops, duplicates, latency spikes
// and reordering pressure at rates loosely matching the lossy, reorderable
// notification delivery reported by Knock-Knock (PAPERS.md).
func BinderStress() Profile {
	return Profile{
		Name:         "binder",
		DropProb:     0.02,
		DupProb:      0.01,
		SpikeProb:    0.10,
		Spike:        simrand.NormalDist(40, 15),
		ReorderProb:  0.05,
		ReorderDelay: simrand.NormalDist(20, 8),
	}
}

// AnimStress perturbs the frame clock: dropped frames and off-grid jitter.
func AnimStress() Profile {
	return Profile{
		Name:            "anim",
		FrameDropProb:   0.15,
		FrameJitterProb: 0.25,
		FrameJitter:     simrand.NormalDist(4, 2),
	}
}

// SchedStress preempts the attacker thread's timer re-arms, modelling the
// scheduler spikes the paper observes as outlier mistouches.
func SchedStress() Profile {
	return Profile{
		Name:        "sched",
		PreemptProb: 0.20,
		Preempt:     simrand.NormalDist(30, 10),
	}
}

// ToastStress floods the system_server toast queue from a noise app.
func ToastStress() Profile {
	return Profile{
		Name:           "toast",
		ToastBurstProb: 0.50,
		ToastBurstMax:  8,
	}
}

// BinderBurst models correlated binder-fault bursts: most of the time the
// bus is clean, but a seeded Markov gate occasionally opens a burst window
// (mean length 1/BurstExitProb = 4 transactions) during which drops and
// duplicates are heavy. The stationary burst duty cycle is
// enter/(enter+exit) ≈ 7.4%, putting the long-run drop rate near
// BinderStress's 2% while concentrating the losses into runs — the
// correlated-failure texture of a congested Binder rather than
// independent per-transaction coin flips.
func BinderBurst() Profile {
	return Profile{
		Name:           "burst",
		DropProb:       0.35,
		DupProb:        0.10,
		BurstEnterProb: 0.02,
		BurstExitProb:  0.25,
	}
}

// Thermal models sustained-load throttling: the run always throttles,
// frames render on time for the first ~600 ms of animation load, then the
// per-frame drift ramps over the next ~1.2 s to a ceiling of a few
// milliseconds per frame — the slow-motion animation stretch of a hot
// SoC stepping down its clocks.
func Thermal() Profile {
	return Profile{
		Name:               "thermal",
		ThermalProb:        1,
		ThermalOnsetFrames: 60,
		ThermalRampFrames:  120,
		ThermalMaxDrift:    simrand.NormalDist(6, 2),
	}
}

// Chaos combines every fault class at moderate rates.
func Chaos() Profile {
	return Profile{
		Name:            "chaos",
		DropProb:        0.01,
		DupProb:         0.005,
		SpikeProb:       0.05,
		Spike:           simrand.NormalDist(40, 15),
		ReorderProb:     0.03,
		ReorderDelay:    simrand.NormalDist(20, 8),
		FrameDropProb:   0.08,
		FrameJitterProb: 0.12,
		FrameJitter:     simrand.NormalDist(4, 2),
		PreemptProb:     0.10,
		Preempt:         simrand.NormalDist(30, 10),
		ToastBurstProb:  0.25,
		ToastBurstMax:   6,
	}
}

var profilesByName = map[string]func() Profile{
	"none":    None,
	"binder":  BinderStress,
	"burst":   BinderBurst,
	"anim":    AnimStress,
	"sched":   SchedStress,
	"toast":   ToastStress,
	"thermal": Thermal,
	"chaos":   Chaos,
}

// ByName resolves a named profile (see Names).
func ByName(name string) (Profile, error) {
	f, ok := profilesByName[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		return Profile{}, fmt.Errorf("faults: unknown profile %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return f(), nil
}

// Names lists the named profiles in sorted order.
func Names() []string {
	out := make([]string, 0, len(profilesByName))
	for n := range profilesByName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Stats counts the faults a Plane actually injected.
type Stats struct {
	TxDropped    uint64
	TxDuplicated uint64
	TxSpiked     uint64
	TxReordered  uint64

	// BurstsEntered counts quiet→burst transitions of the binder burst
	// gate; BurstTx counts transactions that passed while the gate was in
	// its burst state (drops and dups can only occur among these when the
	// gate is enabled).
	BurstsEntered uint64
	BurstTx       uint64

	FramesDropped  uint64
	FramesJittered uint64

	// ThermalRuns counts runs in which the throttling coin came up armed
	// (at most 1 per Plane); FramesThrottled counts frames past onset that
	// received a thermal drift, and ThermalDriftTotal sums that drift.
	ThermalRuns       uint64
	FramesThrottled   uint64
	ThermalDriftTotal time.Duration

	Preemptions  uint64
	PreemptTotal time.Duration

	ToastBursts uint64
	ToastTokens uint64
}

// Add returns the element-wise sum of s and o.
func (s Stats) Add(o Stats) Stats {
	s.TxDropped += o.TxDropped
	s.TxDuplicated += o.TxDuplicated
	s.TxSpiked += o.TxSpiked
	s.TxReordered += o.TxReordered
	s.BurstsEntered += o.BurstsEntered
	s.BurstTx += o.BurstTx
	s.FramesDropped += o.FramesDropped
	s.FramesJittered += o.FramesJittered
	s.ThermalRuns += o.ThermalRuns
	s.FramesThrottled += o.FramesThrottled
	s.ThermalDriftTotal += o.ThermalDriftTotal
	s.Preemptions += o.Preemptions
	s.PreemptTotal += o.PreemptTotal
	s.ToastBursts += o.ToastBursts
	s.ToastTokens += o.ToastTokens
	return s
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
	add("txDrop", s.TxDropped)
	add("txDup", s.TxDuplicated)
	add("txSpike", s.TxSpiked)
	add("txReorder", s.TxReordered)
	add("burst", s.BurstsEntered)
	add("burstTx", s.BurstTx)
	add("frameDrop", s.FramesDropped)
	add("frameJitter", s.FramesJittered)
	add("thermal", s.ThermalRuns)
	add("throttled", s.FramesThrottled)
	add("preempt", s.Preemptions)
	add("toastBurst", s.ToastBursts)
	add("toastTokens", s.ToastTokens)
	if len(parts) == 0 {
		return "no faults injected"
	}
	return strings.Join(parts, " ")
}

// Plane is a live fault injector for one simulation run. It is not safe
// for concurrent use; like the clock it belongs to exactly one run, and
// Reset readies it for the next.
type Plane struct {
	prof Profile

	// One private sub-stream per fault class, so enabling one class never
	// perturbs the draws of another; root seeds them. They are held by
	// value and reseeded in place.
	root       simrand.Source
	binderRng  simrand.Source
	animRng    simrand.Source
	schedRng   simrand.Source
	toastRng   simrand.Source
	burstRng   simrand.Source
	thermalRng simrand.Source

	// inBurst is the binder burst gate's Markov state.
	inBurst bool

	// Thermal state: the armed coin is flipped on the first frame of the
	// run (thermalDecided gates the flip), frames counts FrameFault calls
	// so onset and ramp are measured in scheduled frames.
	thermalDecided  bool
	thermalArmed    bool
	thermalMaxDrift time.Duration
	frames          int

	stats Stats
}

// NewPlane builds a Plane for profile p from its own seed. The seed is
// deliberately independent of the stack's root seed: deriving from the
// stack root would consume a draw there and change an unfaulted run.
func NewPlane(p Profile, seed int64) *Plane {
	pl := new(Plane)
	pl.Reset(p, seed)
	return pl
}

// Reset returns the plane to the state NewPlane(p, seed) builds: its
// streams reseeded in place, no burst or thermal state, zero stats. A
// reset plane injects exactly what a new one would.
func (pl *Plane) Reset(p Profile, seed int64) {
	pl.prof = p
	pl.root.Reseed(seed)
	pl.root.DeriveInto(&pl.binderRng, "faults/binder")
	pl.root.DeriveInto(&pl.animRng, "faults/anim")
	pl.root.DeriveInto(&pl.schedRng, "faults/sched")
	pl.root.DeriveInto(&pl.toastRng, "faults/toast")
	pl.root.DeriveInto(&pl.burstRng, "faults/burst")
	pl.root.DeriveInto(&pl.thermalRng, "faults/thermal")
	pl.inBurst = false
	pl.thermalDecided, pl.thermalArmed = false, false
	pl.thermalMaxDrift = 0
	pl.frames = 0
	pl.stats = Stats{}
}

// Profile returns the profile the plane was built from.
func (pl *Plane) Profile() Profile { return pl.prof }

// Stats reports the faults injected so far; a nil plane (an unfaulted
// run) injected none.
func (pl *Plane) Stats() Stats {
	if pl == nil {
		return Stats{}
	}
	return pl.stats
}

// TransactionFault implements binder.FaultInjector: it decides the fate of
// one transaction. A dropped transaction short-circuits the remaining
// classes (there is nothing left to duplicate or delay).
func (pl *Plane) TransactionFault(from, to binder.ProcessID, method string) binder.TxFault {
	var f binder.TxFault
	p := pl.prof
	// Step the burst gate first: with the gate enabled, the drop and dup
	// classes fire only inside a burst window. The gate draws exactly one
	// Bool per transaction from its private stream, so the chain's
	// trajectory — and hence the burst placement — is a pure function of
	// the plane's seed, independent of which effect classes are enabled.
	dropProb, dupProb := p.DropProb, p.DupProb
	if p.BurstEnterProb > 0 {
		if pl.inBurst {
			if pl.burstRng.Bool(p.BurstExitProb) {
				pl.inBurst = false
			}
		} else if pl.burstRng.Bool(p.BurstEnterProb) {
			pl.inBurst = true
			pl.stats.BurstsEntered++
		}
		if pl.inBurst {
			pl.stats.BurstTx++
		} else {
			dropProb, dupProb = 0, 0
		}
	}
	if dropProb > 0 && pl.binderRng.Bool(dropProb) {
		pl.stats.TxDropped++
		f.Drop = true
		return f
	}
	if dupProb > 0 && pl.binderRng.Bool(dupProb) {
		pl.stats.TxDuplicated++
		f.Duplicate = true
	}
	if p.SpikeProb > 0 && pl.binderRng.Bool(p.SpikeProb) {
		pl.stats.TxSpiked++
		f.Delay += p.Spike.Sample(&pl.binderRng)
	}
	if p.ReorderProb > 0 && pl.binderRng.Bool(p.ReorderProb) {
		pl.stats.TxReordered++
		f.Delay += p.ReorderDelay.Sample(&pl.binderRng)
	}
	return f
}

// FrameFault matches anim.FaultFunc: per scheduled frame it reports
// whether the frame slot is dropped and how far the next frame shifts off
// the grid.
func (pl *Plane) FrameFault(name string) (dropFrame bool, jitter time.Duration) {
	p := pl.prof
	if p.FrameDropProb > 0 && pl.animRng.Bool(p.FrameDropProb) {
		pl.stats.FramesDropped++
		dropFrame = true
	}
	if p.FrameJitterProb > 0 && pl.animRng.Bool(p.FrameJitterProb) {
		jitter = p.FrameJitter.Sample(&pl.animRng)
		if jitter > 0 {
			pl.stats.FramesJittered++
		}
	}
	if p.ThermalProb > 0 {
		jitter += pl.thermalDrift()
	}
	return dropFrame, jitter
}

// thermalDrift computes this frame's sustained-load throttling drift. The
// armed coin and the drift ceiling are drawn once, on the first frame,
// from the thermal plane's private stream; afterwards the drift is a pure
// function of the frame counter, so throttling consumes exactly two
// draws per run no matter how long it runs.
func (pl *Plane) thermalDrift() time.Duration {
	p := pl.prof
	pl.frames++
	if !pl.thermalDecided {
		pl.thermalDecided = true
		pl.thermalArmed = pl.thermalRng.Bool(p.ThermalProb)
		if pl.thermalArmed {
			pl.stats.ThermalRuns++
			pl.thermalMaxDrift = p.ThermalMaxDrift.Sample(&pl.thermalRng)
		}
	}
	if !pl.thermalArmed || pl.thermalMaxDrift <= 0 {
		return 0
	}
	past := pl.frames - p.ThermalOnsetFrames
	if past <= 0 {
		return 0
	}
	frac := 1.0
	if p.ThermalRampFrames > 0 && past < p.ThermalRampFrames {
		frac = float64(past) / float64(p.ThermalRampFrames)
	}
	d := time.Duration(float64(pl.thermalMaxDrift) * frac)
	if d > 0 {
		pl.stats.FramesThrottled++
		pl.stats.ThermalDriftTotal += d
	}
	return d
}

// PreemptPause reports how long the attacker thread's next timer re-arm is
// stalled by a simulated preemption (zero most of the time).
func (pl *Plane) PreemptPause() time.Duration {
	p := pl.prof
	if p.PreemptProb <= 0 || !pl.schedRng.Bool(p.PreemptProb) {
		return 0
	}
	d := p.Preempt.Sample(&pl.schedRng)
	if d > 0 {
		pl.stats.Preemptions++
		pl.stats.PreemptTotal += d
	}
	return d
}

// ToastPressureActive reports whether the toast pump should be armed at
// all; when false the pump is never scheduled, keeping the event queue of
// a pressure-free run untouched.
func (pl *Plane) ToastPressureActive() bool {
	return pl.prof.ToastBurstProb > 0 && pl.prof.ToastBurstMax > 0
}

// ToastBurst draws the number of noise toasts to enqueue this pump tick.
func (pl *Plane) ToastBurst() int {
	p := pl.prof
	if !pl.ToastPressureActive() || !pl.toastRng.Bool(p.ToastBurstProb) {
		return 0
	}
	n := 1 + pl.toastRng.Intn(p.ToastBurstMax)
	pl.stats.ToastBursts++
	pl.stats.ToastTokens += uint64(n)
	return n
}

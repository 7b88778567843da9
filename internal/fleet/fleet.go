// Package fleet generates seeded, market-share-weighted synthetic device
// populations. A Fleet is built from
// (size, seed) alone: each device draws its OEM family, Android version,
// display, animation scaling, background load, popularity weight and
// fault calibration from named simrand sub-streams of its own per-device
// stream, so generation is byte-identical at any worker count and device
// i's identity never depends on how many devices were generated before
// it. The hand-calibrated seed catalog answers "what happens on these 30
// phones"; a Fleet answers "what fraction of the market is exposed".
package fleet

import (
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/simrand"
)

// family is one OEM animation/market family: a share prior in the
// market distribution, an Android version mix, display pool, the OEM
// skin's timing character (overall and notification-path scaling, the
// family-mean Tv residual that Table II absorbs per-phone), the family's
// base animation-duration scaling, and a fault tier.
type family struct {
	name         string
	manufacturer string
	// share is the market-share prior; the per-fleet realized shares are
	// jittered around these and renormalized.
	share float64
	// versions is the Android version mix (weights need not sum to 1;
	// they are normalized at draw time).
	versions []versionShare
	screens  []screen
	// timingLo/Hi bound the per-device uniform TimingScale draw;
	// notifLo/Hi the additional notification-path scaling.
	timingLo, timingHi float64
	notifLo, notifHi   float64
	// tvResidualMS is the family-mean extra view-construction latency
	// (device.SynthSpec.TvResidualMS).
	tvResidualMS float64
	// animBase is the OEM's system animation-duration scaling; the
	// per-device animator_duration_scale is animBase times the user
	// setting drawn in userAnimatorScale.
	animBase float64
	// faultScale multiplies the base per-device fault mix; thermalProb
	// is the family's propensity to throttle under sustained load.
	faultScale  float64
	thermalProb float64
}

type versionShare struct {
	v device.AndroidVersion
	w float64
}

type screen struct {
	w, h int
	dpi  float64
}

// families is the market model: shares follow the rough global Android
// vendor split (Samsung heavy, then the Chinese OEMs, stock and OnePlus
// small, a low-end long tail). Timing characters encode the paper's
// observation that heavily skinned OSes run slower notification paths.
// The share priors sum to 1 by construction.
func familyTable() []family {
	return []family{
		{
			name: "stock", manufacturer: "Google", share: 0.12,
			versions: []versionShare{{device.V(10), 0.2}, {device.V(11), 0.45}, {device.V(12), 0.35}},
			screens:  []screen{{1080, 2340, 440}, {1440, 3120, 560}},
			timingLo: 0.88, timingHi: 1.02, notifLo: 0.95, notifHi: 1.05,
			tvResidualMS: 150, animBase: 1.0, faultScale: 0.7, thermalProb: 0.10,
		},
		{
			name: "oneui", manufacturer: "Samsung", share: 0.28,
			versions: []versionShare{{device.V(9), 0.15}, {device.V(10), 0.35}, {device.V(11), 0.35}, {device.V(12), 0.15}},
			screens:  []screen{{1080, 2400, 421}, {1440, 3200, 511}, {720, 1600, 274}},
			timingLo: 0.98, timingHi: 1.22, notifLo: 1.0, notifHi: 1.3,
			tvResidualMS: 220, animBase: 1.0, faultScale: 1.0, thermalProb: 0.15,
		},
		{
			name: "miui", manufacturer: "Xiaomi", share: 0.16,
			versions: []versionShare{{device.V(9), 0.2}, {device.V(10), 0.4}, {device.V(11), 0.3}, {device.V(12), 0.1}},
			screens:  []screen{{1080, 2400, 395}, {1080, 2340, 403}},
			timingLo: 1.05, timingHi: 1.35, notifLo: 1.1, notifHi: 1.5,
			tvResidualMS: 260, animBase: 0.9, faultScale: 1.2, thermalProb: 0.25,
		},
		{
			name: "emui", manufacturer: "Huawei", share: 0.12,
			versions: []versionShare{{device.V(9), 0.3}, {device.V(10), 0.5}, {device.V(11), 0.2}},
			screens:  []screen{{1080, 2340, 398}, {1200, 2640, 440}},
			timingLo: 1.0, timingHi: 1.3, notifLo: 1.05, notifHi: 1.4,
			tvResidualMS: 250, animBase: 1.0, faultScale: 1.1, thermalProb: 0.20,
		},
		{
			name: "coloros", manufacturer: "Oppo", share: 0.10,
			versions: []versionShare{{device.V(9), 0.2}, {device.V(10), 0.45}, {device.V(11), 0.35}},
			screens:  []screen{{1080, 2400, 402}, {720, 1612, 269}},
			timingLo: 1.02, timingHi: 1.3, notifLo: 1.05, notifHi: 1.4,
			tvResidualMS: 240, animBase: 1.0, faultScale: 1.1, thermalProb: 0.25,
		},
		{
			name: "funtouch", manufacturer: "Vivo", share: 0.09,
			versions: []versionShare{{device.V(9), 0.25}, {device.V(10), 0.45}, {device.V(11), 0.3}},
			screens:  []screen{{1080, 2400, 408}, {720, 1544, 267}},
			timingLo: 1.02, timingHi: 1.32, notifLo: 1.05, notifHi: 1.45,
			tvResidualMS: 230, animBase: 1.1, faultScale: 1.1, thermalProb: 0.25,
		},
		{
			name: "oxygenos", manufacturer: "OnePlus", share: 0.05,
			versions: []versionShare{{device.V(10), 0.3}, {device.V(11), 0.45}, {device.V(12), 0.25}},
			screens:  []screen{{1080, 2400, 402}, {1440, 3216, 525}},
			timingLo: 0.9, timingHi: 1.08, notifLo: 0.95, notifHi: 1.1,
			tvResidualMS: 170, animBase: 1.0, faultScale: 0.8, thermalProb: 0.12,
		},
		{
			name: "lowend", manufacturer: "Generic", share: 0.08,
			versions: []versionShare{{device.V(8), 0.35}, {device.V(9), 0.4}, {device.V(10), 0.25}},
			screens:  []screen{{720, 1520, 271}, {720, 1600, 270}},
			timingLo: 1.25, timingHi: 1.7, notifLo: 1.15, notifHi: 1.6,
			tvResidualMS: 320, animBase: 1.0, faultScale: 1.6, thermalProb: 0.45,
		},
	}
}

// animationsOffRate is the fraction of the population running with
// animator_duration_scale = 0 — the accessibility ("remove animations")
// setting. Drawn independently of family.
const animationsOffRate = 0.025

// Background-app load: devices carry 0..maxBackgroundApps background
// apps, folded into the profile via WithLoad (the paper finds the effect
// on the attack window negligible; it is modeled for fidelity, not
// effect size).
const maxBackgroundApps = 9

// Entry is one generated device: its calibrated profile, its normalized
// market-share weight (a Fleet's weights sum to 1), its per-device fault
// calibration and the background-app load already folded into Profile.
type Entry struct {
	Profile device.Profile
	// Weight is the device's market share: the family's realized share
	// times a per-device popularity draw, normalized over the fleet.
	Weight float64
	// Faults is the device's calibrated fault profile: the family's
	// fault tier scaled by a per-device reliability draw, plus the
	// thermal-throttling propensity. It is advisory — experiments decide
	// whether to attach it.
	Faults faults.Profile
	// Background is the number of background apps (already applied to
	// Profile via WithLoad).
	Background int
}

// Fleet is a generated device population.
type Fleet struct {
	size    int
	seed    int64
	entries []Entry
}

// Generate builds the fleet for (size, seed). The same pair always
// yields the same fleet, byte for byte.
func Generate(size int, seed int64) (*Fleet, error) {
	if size <= 0 {
		return nil, fmt.Errorf("fleet: size must be positive, got %d", size)
	}
	fams := familyTable()
	shares := realizedShares(fams, seed)

	f := &Fleet{
		size:    size,
		seed:    seed,
		entries: make([]Entry, size),
	}
	var totalWeight float64
	for i := 0; i < size; i++ {
		e := generateDevice(fams, shares, seed, i)
		f.entries[i] = e
		totalWeight += e.Weight
	}
	for i := range f.entries {
		f.entries[i].Weight /= totalWeight
	}
	return f, nil
}

// realizedShares jitters the family share priors for this fleet seed and
// renormalizes: market splits move between quarters, so two fleets with
// different seeds see slightly different vendor mixes.
func realizedShares(fams []family, seed int64) []float64 {
	rng := simrand.New(seed).Derive("fleet/families")
	shares := make([]float64, len(fams))
	var sum float64
	for i, fam := range fams {
		shares[i] = fam.share * rng.TruncNormal(1, 0.1, 0.7, 1.3)
		sum += shares[i]
	}
	for i := range shares {
		shares[i] /= sum
	}
	return shares
}

// generateDevice draws device i. Everything comes from named sub-streams
// of the device's own stream, which is derived from a fresh parent so it
// depends only on (seed, i).
func generateDevice(fams []family, shares []float64, seed int64, i int) Entry {
	dev := simrand.New(seed).DeriveIndexed("fleet/device", i)
	// Sub-stream derivation order is fixed; each class draws only from
	// its own stream, so adding a draw to one class never shifts another.
	pick := dev.Derive("fleet/pick")
	scales := dev.Derive("fleet/scales")
	pop := dev.Derive("fleet/popularity")
	load := dev.Derive("fleet/load")
	fcal := dev.Derive("fleet/faults")

	famIdx := pickWeighted(pick, shares)
	fam := fams[famIdx]
	ver := pickVersion(pick, fam.versions)
	scr := fam.screens[pick.Intn(len(fam.screens))]
	userScale := userAnimatorScale(pick)
	animOff := pick.Bool(animationsOffRate)

	spec := device.SynthSpec{
		Manufacturer:   fam.manufacturer,
		Model:          fmt.Sprintf("%s-%04d", fam.name, i),
		Family:         fam.name,
		Version:        ver,
		ScreenW:        scr.w,
		ScreenH:        scr.h,
		DPI:            scr.dpi,
		TimingScale:    uniformIn(scales, fam.timingLo, fam.timingHi),
		NotifPathScale: uniformIn(scales, fam.notifLo, fam.notifHi),
		AnimatorScale:  fam.animBase * userScale,
		AnimationsOff:  animOff,
		TvResidualMS:   fam.tvResidualMS,
	}
	profile := device.Synthesize(spec, dev)

	background := load.Intn(maxBackgroundApps + 1)
	profile = profile.WithLoad(background)

	// Popularity is lognormal: a few hero SKUs carry most of a family's
	// share, with a long tail of minor models. Family membership is
	// already drawn in proportion to the realized shares, so the raw
	// weight is the popularity draw alone — multiplying the share in
	// again would square the family's market presence.
	weight := math.Exp(pop.Normal(0, 0.55))

	return Entry{
		Profile:    profile,
		Weight:     weight,
		Faults:     deviceFaults(fam, fcal),
		Background: background,
	}
}

// pickWeighted draws an index from normalized weights.
func pickWeighted(rng *simrand.Source, weights []float64) int {
	r := rng.Float64()
	var cum float64
	for i, w := range weights {
		cum += w
		if r < cum {
			return i
		}
	}
	return len(weights) - 1
}

func pickVersion(rng *simrand.Source, vs []versionShare) device.AndroidVersion {
	var sum float64
	for _, v := range vs {
		sum += v.w
	}
	r := rng.Float64() * sum
	var cum float64
	for _, v := range vs {
		cum += v.w
		if r < cum {
			return v.v
		}
	}
	return vs[len(vs)-1].v
}

// userAnimatorScale draws the user's animator_duration_scale developer
// setting: overwhelmingly the stock 1x, a small population at 0.5x and
// 1.5x.
func userAnimatorScale(rng *simrand.Source) float64 {
	r := rng.Float64()
	switch {
	case r < 0.04:
		return 0.5
	case r > 0.98:
		return 1.5
	default:
		return 1.0
	}
}

func uniformIn(rng *simrand.Source, lo, hi float64) float64 {
	return lo + rng.Float64()*(hi-lo)
}

// deviceFaults calibrates the device's fault profile: the base mix
// (binder spikes and rare drops, mild frame faults, scheduler
// preemption — no toast pressure, so fleet stacks stay drivable with
// run-to-empty) scaled by the family's fault tier and a per-device
// reliability multiplier, plus the family's thermal-throttling
// propensity.
func deviceFaults(fam family, rng *simrand.Source) faults.Profile {
	mult := rng.TruncNormal(1, 0.3, 0.4, 2.0)
	thermalMult := rng.TruncNormal(1, 0.25, 0.5, 1.8)
	p := faults.Profile{
		Name:            "fleet/" + fam.name,
		DropProb:        0.002,
		SpikeProb:       0.03,
		Spike:           simrand.NormalDist(40, 15),
		FrameDropProb:   0.01,
		FrameJitterProb: 0.04,
		FrameJitter:     simrand.NormalDist(3, 1.5),
		PreemptProb:     0.05,
		Preempt:         simrand.NormalDist(30, 10),
	}.Scale(fam.faultScale * mult)
	p.ThermalProb = clamp01(fam.thermalProb * thermalMult)
	p.ThermalOnsetFrames = 60
	p.ThermalRampFrames = 120
	p.ThermalMaxDrift = simrand.NormalDist(6, 2)
	return p
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Name identifies the fleet in reports.
func (f *Fleet) Name() string { return fmt.Sprintf("fleet(size=%d,seed=%d)", f.size, f.seed) }

// Seed reports the generation seed.
func (f *Fleet) Seed() int64 { return f.seed }

// Entries returns the generated devices in generation order. Callers
// must not mutate the returned slice.
func (f *Fleet) Entries() []Entry { return f.entries }

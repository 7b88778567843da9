package device

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/simrand"
)

// TestSeedCatalogMatchesLegacy pins the API redesign's core contract: the
// seed Catalog must be byte-identical to the historical package-level
// lookup functions.
func TestSeedCatalogMatchesLegacy(t *testing.T) {
	cat := Seed()
	legacy := seedProfiles()
	if got := cat.Profiles(); !reflect.DeepEqual(got, legacy) {
		t.Fatal("Seed().Profiles() differs from the hand-calibrated set")
	}
	for _, want := range legacy {
		got, ok := cat.ByModel(want.Model)
		if !ok {
			t.Fatalf("ByModel(%q) missing from seed catalog", want.Model)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ByModel(%q) differs from the profile list entry", want.Model)
		}
	}
	if _, ok := cat.ByModel("iphone"); ok {
		t.Fatal("seed catalog found a nonexistent device")
	}
	if got := cat.Default(); got.Model != "pixel 2" || got.Version.Major != 11 {
		t.Fatalf("Seed().Default() = %s, want pixel 2 on Android 11", got.Name())
	}
}

// TestSeedCatalogCopyOnRead: mutating the slice a catalog hands out must
// not corrupt the shared cache (the historical Profiles() rebuilt its
// slice per call, so callers may mutate).
func TestSeedCatalogCopyOnRead(t *testing.T) {
	cat := Seed()
	got := cat.Profiles()
	got[0].Model = "corrupted"
	if cat.Profiles()[0].Model == "corrupted" {
		t.Fatal("mutating Profiles() result corrupted the seed catalog cache")
	}
}

func TestByVersionIn(t *testing.T) {
	cat := Seed()
	for _, major := range []int{8, 9, 10, 11} {
		got := ByVersionIn(cat, major)
		var want []Profile
		for _, p := range seedProfiles() {
			if p.Version.Major == major {
				want = append(want, p)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ByVersionIn(seed, %d) differs from the hand-calibrated set's Android %d phones", major, major)
		}
	}
	if len(ByVersionIn(cat, 7)) != 0 {
		t.Fatal("ByVersionIn(seed, 7) returned devices")
	}
}

func TestSlideDuration(t *testing.T) {
	p := Seed().Default()
	// Seed profiles carry no animator scale: stock 360 ms.
	if got := p.SlideDuration(); got != 360*time.Millisecond {
		t.Fatalf("seed SlideDuration = %v, want 360ms", got)
	}
	p.AnimatorScale = 0.5
	if got := p.SlideDuration(); got != 180*time.Millisecond {
		t.Fatalf("0.5x SlideDuration = %v, want 180ms", got)
	}
	p.AnimatorScale = 1.5
	if got := p.SlideDuration(); got != 540*time.Millisecond {
		t.Fatalf("1.5x SlideDuration = %v, want 540ms", got)
	}
	// The animations-off population collapses the slide to one frame
	// regardless of the nominal scale.
	p.AnimationsOff = true
	if got := p.SlideDuration(); got != 10*time.Millisecond {
		t.Fatalf("animations-off SlideDuration = %v, want one frame", got)
	}
	// A tiny-but-nonzero scale clamps to one frame rather than zero.
	p.AnimationsOff = false
	p.AnimatorScale = 0.001
	if got := p.SlideDuration(); got != 10*time.Millisecond {
		t.Fatalf("0.001x SlideDuration = %v, want clamped to one frame", got)
	}
}

// TestAnimationsOffUpperBound: with the slide collapsed to a single
// frame the alert's first pixel renders on the very first frame, so the
// analytical window loses the first-visible-frame term (the dynamic
// effect is stronger still — the draw-and-destroy attack needs the blank
// early frames and fails outright without them).
func TestAnimationsOffUpperBound(t *testing.T) {
	stock := Seed().Default()
	off := stock
	off.AnimationsOff = true
	dStock, dOff := stock.ExpectedUpperBoundD(), off.ExpectedUpperBoundD()
	if dOff >= dStock {
		t.Fatalf("animations-off D bound %v not below stock %v", dOff, dStock)
	}
	if dStock-dOff < 10*time.Millisecond {
		t.Fatalf("animations-off shrank D by %v, want at least one frame", dStock-dOff)
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	spec := SynthSpec{
		Manufacturer: "Synthex",
		Model:        "sx-1",
		Family:       "lightos",
		Version:      V(10),
		ScreenW:      1080, ScreenH: 2280, DPI: 440,
		TimingScale:    1.1,
		NotifPathScale: 1.2,
		AnimatorScale:  1,
	}
	a := Synthesize(spec, simrand.New(99).Derive("fleet/device"))
	b := Synthesize(spec, simrand.New(99).Derive("fleet/device"))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Synthesize is not deterministic for identical spec+stream")
	}
	// A different device stream must give a different calibration.
	c := Synthesize(spec, simrand.New(99).DeriveIndexed("fleet/device", 1))
	if reflect.DeepEqual(a, c) {
		t.Fatal("distinct device streams produced identical calibrations")
	}
}

// TestSynthesizeOrderIndependence documents the fresh-parent derivation
// pattern the fleet generator uses: because Derive consumes a draw from
// its parent, per-device streams come from a fresh simrand.New(seed)
// each, so device i's calibration depends only on (seed, i) — not on how
// many devices were synthesized before it.
func TestSynthesizeOrderIndependence(t *testing.T) {
	spec := SynthSpec{
		Manufacturer: "Synthex", Model: "sx-2", Family: "heavyskin",
		Version: V(9), ScreenW: 1080, ScreenH: 1920, DPI: 403,
		TimingScale: 1.3, NotifPathScale: 1.5, TvResidualMS: 250,
	}
	devStream := func(i int) *simrand.Source {
		return simrand.New(7).DeriveIndexed("fleet/device", i)
	}
	a := Synthesize(spec, devStream(3))
	// Synthesize other devices first; device 3 must be unaffected.
	for i := 0; i < 3; i++ {
		other := spec
		other.Model = "sx-other"
		_ = Synthesize(other, devStream(i))
	}
	b := Synthesize(spec, devStream(3))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("synthesizing other devices changed device 3's calibration")
	}
}

func TestSynthesizePlausible(t *testing.T) {
	rng := simrand.New(5)
	for i := 0; i < 20; i++ {
		scale := 0.8 + 0.05*float64(i)
		p := Synthesize(SynthSpec{
			Manufacturer: "Synthex", Model: "sx-p", Family: "stock",
			Version: V(10), ScreenW: 1080, ScreenH: 2160, DPI: 420,
			TimingScale: scale, TvResidualMS: 180,
		}, rng.DeriveIndexed("fleet/device", i))
		if p.NotifViewHeightPx <= 0 {
			t.Fatalf("device %d: nonpositive notif height", i)
		}
		if p.LoadFactor != 1 {
			t.Fatalf("device %d: LoadFactor = %v, want 1", i, p.LoadFactor)
		}
		d := p.ExpectedUpperBoundD()
		if d < 150*time.Millisecond || d > 900*time.Millisecond {
			t.Fatalf("device %d: analytical D bound %v outside plausible Table-II range", i, d)
		}
		for j := 0; j < 50; j++ {
			if s := p.Tv.Sample(rng); s < 0 || s > 600*time.Millisecond {
				t.Fatalf("device %d: Tv sample %v implausible", i, s)
			}
		}
	}
}

// TestSynthesizeScalesMonotone: a heavier timing scale yields a slower
// notification path and therefore a larger analytical attack window.
func TestSynthesizeScalesMonotone(t *testing.T) {
	mk := func(ts float64) Profile {
		return Synthesize(SynthSpec{
			Manufacturer: "Synthex", Model: "sx-m", Family: "stock",
			Version: V(10), ScreenW: 1080, ScreenH: 2160, DPI: 420,
			TimingScale: ts,
		}, simrand.New(11).Derive("fleet/device"))
	}
	light, heavy := mk(0.9), mk(1.5)
	if heavy.ExpectedUpperBoundD() <= light.ExpectedUpperBoundD() {
		t.Fatalf("heavier skin D bound %v not above lighter %v",
			heavy.ExpectedUpperBoundD(), light.ExpectedUpperBoundD())
	}
}

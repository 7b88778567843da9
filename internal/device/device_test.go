package device

import (
	"testing"
	"time"

	"repro/internal/simrand"
)

func TestProfilesCount(t *testing.T) {
	if got := len(Seed().Profiles()); got != 30 {
		t.Fatalf("Seed().Profiles() returned %d devices, want 30 (Table I)", got)
	}
}

func TestProfilesUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, p := range Seed().Profiles() {
		key := p.Manufacturer + "/" + p.Model
		if seen[key] {
			t.Fatalf("duplicate profile %s", key)
		}
		seen[key] = true
	}
}

// TestCalibrationMatchesTableII is the core calibration check: every
// profile's analytical Λ1 upper bound must reproduce the paper's Table II
// measurement plus the documented 10 ms strictness headroom, to within one
// frame interval.
func TestCalibrationMatchesTableII(t *testing.T) {
	const headroom = 10 * time.Millisecond
	for _, p := range Seed().Profiles() {
		got := p.ExpectedUpperBoundD()
		want := p.PaperUpperBoundD + headroom
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		if diff > 10*time.Millisecond {
			t.Errorf("%s: analytical D bound %v, want %v (Table II + headroom)", p.Name(), got, want)
		}
	}
}

func TestVersionDistribution(t *testing.T) {
	// Table II has 3 Android 8, 13 Android 9 (incl. 9.1), 12 Android 10
	// and 2 Android 11 devices.
	counts := map[int]int{}
	for _, p := range Seed().Profiles() {
		counts[p.Version.Major]++
	}
	want := map[int]int{8: 3, 9: 13, 10: 12, 11: 2}
	for major, n := range want {
		if counts[major] != n {
			t.Errorf("Android %d: %d devices, want %d", major, counts[major], n)
		}
	}
}

func TestANADelay(t *testing.T) {
	tests := []struct {
		v    AndroidVersion
		want time.Duration
	}{
		{V(8), 0},
		{V(9), 0},
		{AndroidVersion{Major: 9, Label: "9.1"}, 0},
		{V(10), 100 * time.Millisecond},
		{V(11), 200 * time.Millisecond},
		{V(12), 200 * time.Millisecond},
	}
	for _, tt := range tests {
		if got := tt.v.ANADelay(); got != tt.want {
			t.Errorf("ANADelay(%v) = %v, want %v", tt.v, got, tt.want)
		}
	}
}

// TestTmisVersionOrdering checks the paper's Fig. 8 root cause: Android 10
// and 11 profiles have a larger expected mistouch window than Android 8/9
// because Trm was significantly reduced.
func TestTmisVersionOrdering(t *testing.T) {
	avg := func(major int) time.Duration {
		ps := ByVersionIn(Seed(), major)
		if len(ps) == 0 {
			t.Fatalf("no profiles for Android %d", major)
		}
		var sum time.Duration
		for _, p := range ps {
			sum += p.ExpectedTmis()
		}
		return sum / time.Duration(len(ps))
	}
	t89 := (avg(8) + avg(9)) / 2
	t10 := avg(10)
	t11 := avg(11)
	if t10 <= t89 {
		t.Errorf("E[Tmis] Android 10 (%v) should exceed Android 8/9 (%v)", t10, t89)
	}
	if t11 <= t89 {
		t.Errorf("E[Tmis] Android 11 (%v) should exceed Android 8/9 (%v)", t11, t89)
	}
	if t89 > 3*time.Millisecond {
		t.Errorf("E[Tmis] on Android 8/9 = %v; paper says it approaches 0", t89)
	}
}

func TestNexus6PNotifHeight(t *testing.T) {
	p, ok := Seed().ByModel("nexus6p")
	if !ok {
		t.Fatal("nexus6p profile missing")
	}
	if p.NotifViewHeightPx != 72 {
		t.Fatalf("nexus6p notification view height = %d px, paper says 72", p.NotifViewHeightPx)
	}
}

func TestFirstVisibleFrameOffset(t *testing.T) {
	// For a 72 px view the first visible pixel needs completeness
	// ≥ 1/72 ≈ 1.39%, which FastOutSlowIn reaches at ~30 ms.
	got := FirstVisibleFrameOffset(72)
	if got < 20*time.Millisecond || got > 40*time.Millisecond {
		t.Fatalf("FirstVisibleFrameOffset(72) = %v, want ≈30ms", got)
	}
	// The offset must exceed one frame: the paper's point is that the
	// first frame shows nothing.
	if got <= 10*time.Millisecond {
		t.Fatalf("first visible frame at %v; must be after the first frame", got)
	}
	// A taller view becomes visible no later (needs less completeness).
	if tall := FirstVisibleFrameOffset(720); tall > got {
		t.Fatalf("taller view visible later: %v > %v", tall, got)
	}
}

func TestByModel(t *testing.T) {
	p, ok := Seed().ByModel("Redmi")
	if !ok {
		t.Fatal("Redmi not found")
	}
	if p.PaperUpperBoundD != 395*time.Millisecond {
		t.Fatalf("Redmi D bound = %v, want 395ms", p.PaperUpperBoundD)
	}
	if _, ok := Seed().ByModel("iphone"); ok {
		t.Fatal("ByModel found a nonexistent device")
	}
}

func TestByVersion(t *testing.T) {
	for _, p := range ByVersionIn(Seed(), 10) {
		if p.Version.Major != 10 {
			t.Fatalf("ByVersionIn(Seed(), 10) returned %s", p.Name())
		}
	}
	if len(ByVersionIn(Seed(), 7)) != 0 {
		t.Fatal("ByVersionIn(Seed(), 7) returned devices")
	}
}

func TestDefaultProfile(t *testing.T) {
	p := Seed().Default()
	if p.Model != "pixel 2" || p.Version.Major != 11 {
		t.Fatalf("Default = %s, want pixel 2 on Android 11", p.Name())
	}
}

func TestWithLoadNegligible(t *testing.T) {
	p := Seed().Default()
	for _, n := range []int{3, 5} {
		loaded := p.WithLoad(n)
		if loaded.LoadFactor <= 1 {
			t.Fatalf("WithLoad(%d) factor = %v, want > 1", n, loaded.LoadFactor)
		}
		d0, d1 := p.ExpectedUpperBoundD(), loaded.ExpectedUpperBoundD()
		diff := d1 - d0
		if diff < 0 {
			diff = -diff
		}
		// The paper: load influence is negligible (< one frame).
		if diff > 10*time.Millisecond {
			t.Fatalf("load %d apps shifted D bound by %v; paper says negligible", n, diff)
		}
	}
	if got := p.WithLoad(0); got.LoadFactor != 1 {
		t.Fatalf("WithLoad(0) factor = %v, want 1", got.LoadFactor)
	}
}

func TestWithLoadDoesNotMutateOriginal(t *testing.T) {
	p := Seed().Default()
	before := p.Tas.Mean
	_ = p.WithLoad(5)
	if p.Tas.Mean != before {
		t.Fatal("WithLoad mutated the receiver")
	}
}

func TestLatencySamplesArePlausible(t *testing.T) {
	rng := simrand.New(1)
	for _, p := range Seed().Profiles() {
		for i := 0; i < 100; i++ {
			if d := p.Tam.Sample(rng); d < 0 || d > 50*time.Millisecond {
				t.Fatalf("%s: Tam sample %v implausible", p.Name(), d)
			}
			if d := p.Trm.Sample(rng); d < 0 || d > 50*time.Millisecond {
				t.Fatalf("%s: Trm sample %v implausible", p.Name(), d)
			}
		}
	}
}

func TestName(t *testing.T) {
	p := Seed().Default()
	if got := p.Name(); got != "Google pixel 2 (Android 11)" {
		t.Fatalf("Name = %q", got)
	}
}

// TestTableIIVersionOrdering spot-checks the paper's observation that
// Android 10 devices have a greater upper bound of D than comparable 8/9
// devices on average (the ANA delay).
func TestTableIIVersionOrdering(t *testing.T) {
	mean := func(major int) time.Duration {
		ps := ByVersionIn(Seed(), major)
		var sum time.Duration
		for _, p := range ps {
			sum += p.PaperUpperBoundD
		}
		return sum / time.Duration(len(ps))
	}
	if m10, m8 := mean(10), mean(8); m10 <= m8 {
		t.Errorf("mean D bound Android 10 (%v) ≤ Android 8 (%v); paper says 10 is greater", m10, m8)
	}
}

package simrand

import (
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("draw %d diverged for identical seeds", i)
		}
	}
}

func TestDeriveIndependence(t *testing.T) {
	parent := New(7)
	a := parent.Derive("binder")
	b := parent.Derive("input")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("derived streams matched on %d/100 draws; expected independence", same)
	}
}

func TestDeriveIsStable(t *testing.T) {
	a := New(7).Derive("x")
	b := New(7).Derive("x")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("Derive not stable at draw %d", i)
		}
	}
}

func TestDeriveIndexedDistinct(t *testing.T) {
	parent := New(9)
	a := parent.DeriveIndexed("user", 0)
	b := parent.DeriveIndexed("user", 1)
	if a.Float64() == b.Float64() && a.Float64() == b.Float64() {
		t.Fatal("DeriveIndexed streams 0 and 1 appear identical")
	}
}

func TestBoolEdgeCases(t *testing.T) {
	s := New(1)
	for i := 0; i < 100; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if s.Bool(-0.5) {
			t.Fatal("Bool(-0.5) returned true")
		}
		if !s.Bool(1.5) {
			t.Fatal("Bool(1.5) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	s := New(3)
	const n = 20000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.02 {
		t.Fatalf("Bool(0.3) frequency = %.3f, want ≈0.3", got)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(5)
	const n = 50000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	stddev := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-10) > 0.1 {
		t.Fatalf("mean = %.3f, want ≈10", mean)
	}
	if math.Abs(stddev-2) > 0.1 {
		t.Fatalf("stddev = %.3f, want ≈2", stddev)
	}
}

func TestTruncNormalRespectsBounds(t *testing.T) {
	prop := func(seed int64, rawLo, rawHi uint8) bool {
		lo := float64(rawLo)
		hi := float64(rawHi)
		s := New(seed)
		for i := 0; i < 50; i++ {
			v := s.TruncNormal(50, 30, lo, hi)
			effLo, effHi := lo, hi
			if effLo > effHi {
				effLo, effHi = effHi, effLo
			}
			if v < effLo || v > effHi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTruncNormalSwapsBounds(t *testing.T) {
	s := New(11)
	v := s.TruncNormal(5, 1, 10, 0) // lo > hi: should behave as [0,10]
	if v < 0 || v > 10 {
		t.Fatalf("TruncNormal with swapped bounds = %v, want within [0,10]", v)
	}
}

func TestExpMean(t *testing.T) {
	s := New(17)
	const n = 50000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Exp(4)
	}
	if mean := sum / n; math.Abs(mean-4) > 0.15 {
		t.Fatalf("Exp(4) mean = %.3f, want ≈4", mean)
	}
}

func TestZeroDistSamplesZero(t *testing.T) {
	var d Dist
	s := New(1)
	if got := d.Sample(s); got != 0 {
		t.Fatalf("zero Dist sampled %v, want 0", got)
	}
}

func TestConstantDist(t *testing.T) {
	d := Constant(25)
	s := New(1)
	for i := 0; i < 10; i++ {
		if got := d.Sample(s); got != 25*time.Millisecond {
			t.Fatalf("Constant(25) sampled %v, want 25ms", got)
		}
	}
	if got := d.MeanDuration(); got != 25*time.Millisecond {
		t.Fatalf("MeanDuration = %v, want 25ms", got)
	}
}

func TestNormalDistNonNegative(t *testing.T) {
	d := NormalDist(2, 5) // heavy jitter relative to mean
	s := New(23)
	for i := 0; i < 2000; i++ {
		if got := d.Sample(s); got < 0 {
			t.Fatalf("NormalDist sampled %v, want >= 0", got)
		}
	}
}

func TestNormalDistMean(t *testing.T) {
	d := NormalDist(40, 3)
	s := New(29)
	const n = 20000
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += d.Sample(s)
	}
	mean := float64(sum) / float64(n) / float64(time.Millisecond)
	if math.Abs(mean-40) > 0.5 {
		t.Fatalf("mean = %.2f ms, want ≈40ms", mean)
	}
}

func TestSpikesIncreaseMean(t *testing.T) {
	base := NormalDist(10, 1)
	spiky := base
	spiky.SpikeProb = 0.2
	spiky.SpikeMean = 50
	s1, s2 := New(31), New(31)
	const n = 20000
	var sumBase, sumSpiky time.Duration
	for i := 0; i < n; i++ {
		sumBase += base.Sample(s1)
		sumSpiky += spiky.Sample(s2)
	}
	if sumSpiky <= sumBase {
		t.Fatalf("spiky mean %v <= base mean %v; spikes had no effect", sumSpiky/n, sumBase/n)
	}
}

func TestExponentialDistKind(t *testing.T) {
	d := Dist{Kind: DistExponential, Mean: 5, Min: 2}
	s := New(37)
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		v := d.Sample(s)
		if v < 2*time.Millisecond {
			t.Fatalf("exponential draw %v below Min 2ms", v)
		}
		sum += float64(v) / float64(time.Millisecond)
	}
	if mean := sum / n; math.Abs(mean-7) > 0.3 {
		t.Fatalf("mean = %.2f ms, want ≈7ms (Min+Mean)", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(41)
	p := s.Perm(20)
	seen := make(map[int]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm produced invalid permutation %v", p)
		}
		seen[v] = true
	}
}

// TestFNV64aMatchesHashFNV pins the inline hash Derive seeds with to
// hash/fnv's FNV-1a.
func TestFNV64aMatchesHashFNV(t *testing.T) {
	for _, name := range []string{"", "binder", "sysserver", "sysui", "faults/thermal", "user[12]", "Λ1"} {
		h := fnv.New64a()
		_, _ = h.Write([]byte(name))
		if got, want := fnv64a(name), h.Sum64(); got != want {
			t.Fatalf("fnv64a(%q) = %#x, hash/fnv gives %#x", name, got, want)
		}
	}
}

// TestDeriveIntoMatchesDerive checks that reseeding a used stream with
// DeriveInto yields the stream Derive returns, and draws the same value
// from the parent.
func TestDeriveIntoMatchesDerive(t *testing.T) {
	a, b := New(9), New(9)
	child := New(1)
	for i := 0; i < 600; i++ {
		child.Float64()
	}
	for _, name := range []string{"binder", "sysserver", "sysui"} {
		want := a.Derive(name)
		b.DeriveInto(child, name)
		for i := 0; i < 400; i++ {
			if g, w := child.Float64(), want.Float64(); g != w {
				t.Fatalf("%s: draw %d = %v, Derive gives %v", name, i, g, w)
			}
		}
	}
	if a.Float64() != b.Float64() {
		t.Fatal("DeriveInto drew from the parent differently than Derive")
	}
}

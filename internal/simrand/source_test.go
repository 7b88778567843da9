package simrand

import (
	"math"
	"math/rand"
	"testing"
)

// sourceDraws wraps the 607-word state more than twice, so every word is
// read both as a freshly seeded value and after it has been rewritten.
const sourceDraws = 1500

// edgeSeeds are the seeds where math/rand's reduction mod 2³¹−1 branches:
// zero and its multiples (replaced by a fixed seed), negatives, and values
// at or beyond 31 and 63 bits.
var edgeSeeds = []int64{
	0, 1, -1, 42, 7, 89482311,
	seedMod, -seedMod, 1 << 31, 1 << 62,
	math.MinInt64, math.MaxInt64, 2 * seedMod,
}

// compareSource checks fibSource against rand.NewSource(seed), alternating
// Uint64 and Int63, and fails on the first differing draw.
func compareSource(t *testing.T, seed int64) {
	t.Helper()
	var got fibSource
	got.Seed(seed)
	want := rand.NewSource(seed).(rand.Source64)
	for i := 0; i < sourceDraws; i++ {
		if i%2 == 0 {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 draw %d = %d, math/rand gives %d", seed, i, g, w)
			}
		} else if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: Int63 draw %d = %d, math/rand gives %d", seed, i, g, w)
		}
	}
}

func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range edgeSeeds {
		compareSource(t, seed)
	}
	seeds := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		seed := seeds.Int63()
		if i%2 == 1 {
			seed = -seed
		}
		compareSource(t, seed)
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed)
	}
	f.Fuzz(compareSource)
}

// TestReseedMatchesMathRand checks that Seed on a used source restarts it
// exactly where a fresh math/rand source starts, whether the source was
// still lazy, one draw from building its state, or already built.
func TestReseedMatchesMathRand(t *testing.T) {
	for _, used := range []int{0, 1, fibTap - 1, fibTap, fibTap + 1, 1000} {
		var got fibSource
		got.Seed(3)
		for i := 0; i < used; i++ {
			got.Uint64()
		}
		got.Seed(5)
		want := rand.NewSource(5)
		for i := 0; i < sourceDraws; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("reseeded after %d draws: draw %d = %d, math/rand gives %d", used, i, g, w)
			}
		}
	}
}

// TestStateBuiltAtFirstLap checks that a source allocates its state only
// at the draw that first reads a rewritten word: draws 0 … fibTap−1 read
// seeded words only, and draw fibTap reads the word draw 0 wrote. Seed
// returns it to the lazy mode and keeps the buffer.
func TestStateBuiltAtFirstLap(t *testing.T) {
	var r fibSource
	r.Seed(42)
	for i := 0; i < fibTap; i++ {
		r.Uint64()
	}
	if r.full != nil {
		t.Fatalf("state allocated after %d draws; want it only at draw %d", fibTap, fibTap)
	}
	r.Uint64()
	if r.full == nil {
		t.Fatalf("state still lazy after %d draws", fibTap+1)
	}
	built := r.full
	r.Seed(42)
	if r.feed < 0 {
		t.Fatal("Seed left the state built; want the lazy mode")
	}
	if r.full != built {
		t.Fatal("Seed dropped the built state's buffer; want it kept for the next build")
	}
}

// TestSourceMatchesAcrossStateBuild checks Source's own draws against
// math/rand past the draw that builds the state, which repoints the
// Source's rand.Rand at it, possibly in the middle of a Perm.
func TestSourceMatchesAcrossStateBuild(t *testing.T) {
	for _, seed := range edgeSeeds {
		got := New(seed)
		lazy := got.rng
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < sourceDraws; i++ {
			switch i % 4 {
			case 0:
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d: Float64 draw %d = %v, math/rand gives %v", seed, i, g, w)
				}
			case 1:
				if g, w := got.Normal(0, 1), want.NormFloat64(); g != w {
					t.Fatalf("seed %d: Normal draw %d = %v, math/rand gives %v", seed, i, g, w)
				}
			case 2:
				if g, w := got.Intn(1000), want.Intn(1000); g != w {
					t.Fatalf("seed %d: Intn draw %d = %d, math/rand gives %d", seed, i, g, w)
				}
			case 3:
				g, w := got.Perm(9), want.Perm(9)
				for j := range g {
					if g[j] != w[j] {
						t.Fatalf("seed %d: Perm draw %d = %v, math/rand gives %v", seed, i, g, w)
					}
				}
			}
		}
		if got.rng == lazy {
			t.Fatalf("seed %d: Source still draws through the lazy source after its state was built", seed)
		}
	}
}

// TestDrawsMatchMathRand checks the draws the simulator makes through
// rand.Rand on top of the source.
func TestDrawsMatchMathRand(t *testing.T) {
	for _, seed := range edgeSeeds {
		got := New(seed).rng
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < sourceDraws; i++ {
			switch i % 5 {
			case 0:
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d: Float64 draw %d = %v, math/rand gives %v", seed, i, g, w)
				}
			case 1:
				if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
					t.Fatalf("seed %d: NormFloat64 draw %d = %v, math/rand gives %v", seed, i, g, w)
				}
			case 2:
				if g, w := got.ExpFloat64(), want.ExpFloat64(); g != w {
					t.Fatalf("seed %d: ExpFloat64 draw %d = %v, math/rand gives %v", seed, i, g, w)
				}
			case 3:
				n := 1 + i*7919%1000
				if g, w := got.Intn(n), want.Intn(n); g != w {
					t.Fatalf("seed %d: Intn(%d) draw %d = %d, math/rand gives %d", seed, n, i, g, w)
				}
			case 4:
				g, w := got.Perm(9), want.Perm(9)
				for j := range g {
					if g[j] != w[j] {
						t.Fatalf("seed %d: Perm draw %d = %v, math/rand gives %v", seed, i, g, w)
					}
				}
			}
		}
	}
}

// TestCookedTableIsSeedIndependent checks that the table recovered from
// other seeds is the one seeding uses, which holds only if the inversion
// and the Park–Miller words both match math/rand.
func TestCookedTableIsSeedIndependent(t *testing.T) {
	for _, seed := range []int64{0, -1, 42, math.MinInt64} {
		if got := recoverCooked(seed); got != fibCooked {
			t.Fatalf("cooked table recovered from seed %d differs from the one seeding uses", seed)
		}
	}
}

// TestSourceReseedMatchesNew checks that Source.Reseed on a used stream,
// still lazy or with its state built, restarts it exactly where New does,
// and that the reseeded stream rebuilds its state in the buffer it kept
// instead of allocating another.
func TestSourceReseedMatchesNew(t *testing.T) {
	for _, used := range []int{0, fibTap - 1, fibTap + 1, 1000} {
		got := New(3)
		for i := 0; i < used; i++ {
			got.Float64()
		}
		built := got.src.full
		got.Reseed(5)
		want := New(5)
		for i := 0; i < sourceDraws; i++ {
			if g, w := got.Normal(0, 1), want.Normal(0, 1); g != w {
				t.Fatalf("reseeded after %d draws: draw %d = %v, New gives %v", used, i, g, w)
			}
		}
		if built != nil && got.src.full != built {
			t.Fatalf("reseeded after %d draws: the state was rebuilt in a new buffer", used)
		}
	}
}

// TestReseedAllocBudget holds a reseeded stream's life, seeding plus enough
// draws to build its state, to zero allocations once the stream has built
// it once.
func TestReseedAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	s := New(1)
	seed := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		s.Reseed(seed)
		for i := 0; i < 2*fibTap; i++ {
			s.Float64()
		}
	})
	if allocs > 0 {
		t.Fatalf("reseeding and drawing %d values allocates %.1f times, budget 0", 2*fibTap, allocs)
	}
}

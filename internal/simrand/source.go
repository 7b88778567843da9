package simrand

import "math/rand"

// fibSource is math/rand's additive lagged-Fibonacci generator: the same
// 607-word state, tap 273, Uint64 and Int63, and the same state for every
// seed, so every stream draws exactly what rand.NewSource(seed) would.
// Only seeding differs. math/rand fills the state by stepping the
// Park–Miller generator x ← 48271·x mod (2³¹−1) through 1,841 serially
// dependent divisions; fibSource reads the same values as seedPow[k]·x₀
// mod (2³¹−1), independent products the CPU can overlap.
//
// Most simulator streams draw a handful of values, so the 4.9 KB state is
// built only when a stream needs it. A fresh source is lazy: it keeps the
// reduced seed x and the feed index, which is never negative. Draw n writes word
// 333−n, the sum of words 333−n and 606−n. The first fibTap draws write
// words 333 down to 61 and read words 333 down to 61 and 606 down to 334,
// so each reads a word no earlier draw wrote: its value follows from the
// seed alone, and nothing needs storing. Draw fibTap is the first to read
// a written word (333, as its tap), so it first builds full: the state
// seeded as math/rand seeds it, plus the lap's writes so far. From there
// full runs the recurrence, and feed is −1. Seed returns the source to the
// lazy mode and keeps full, which the next build overwrites instead of
// allocating. fibTap is the generator's tap distance, not a tuning choice.
type fibSource struct {
	x    uint64
	feed int
	full *fibState
	// owner is the Source drawing from this source, if any. Building full
	// repoints owner.rng at it, so later draws run fibState's code
	// directly instead of through the lazy check. Source.Reseed points
	// owner.rng back at the lazy source.
	owner *Source
}

// fibState is the built generator: math/rand's state and recurrence.
type fibState struct {
	tap, feed int
	vec       [fibLen]int64
}

const (
	fibLen  = 607
	fibTap  = 273
	fibMask = 1<<63 - 1
	// seedMod is the Park–Miller modulus 2³¹−1, a Mersenne prime.
	seedMod = 1<<31 - 1
	// seedMul is the Park–Miller multiplier math/rand seeds with.
	seedMul = 48271
	// seedSkip is how many Park–Miller steps math/rand discards before
	// the first state word.
	seedSkip = 20
	// zeroSeed replaces a seed that is 0 mod seedMod, as in math/rand.
	zeroSeed = 89482311
)

var (
	// seedPow[i][j] is seedMul^(seedSkip+1+3i+j) mod seedMod: the factor
	// that takes the reduced seed to the j-th of the three Park–Miller
	// values math/rand packs into state word i.
	seedPow [fibLen][3]uint64
	// fibCooked is math/rand's rngCooked table, XORed into the seeded
	// state. It is recovered from math/rand's own output at init rather
	// than copied.
	fibCooked [fibLen]int64
)

func init() {
	p := uint64(1)
	for k := 0; k < seedSkip; k++ {
		p = p * seedMul % seedMod
	}
	for i := range seedPow {
		for j := range seedPow[i] {
			p = p * seedMul % seedMod
			seedPow[i][j] = p
		}
	}
	fibCooked = recoverCooked(1)
}

// recoverCooked derives the cooked table from rand.NewSource(seed). One
// lap of fibLen draws writes every state word exactly once, so the
// outputs are the state after that lap; running the recurrence
// vec[feed] += vec[tap] backwards over the lap restores the seeded state,
// and XORing out the Park–Miller words leaves the cooked table. The
// result is the same for every seed.
func recoverCooked(seed int64) [fibLen]int64 {
	ref := rand.NewSource(seed).(rand.Source64)
	var vec [fibLen]int64
	tap, feed := 0, fibLen-fibTap
	for n := 0; n < fibLen; n++ {
		feed = (feed + fibLen - 1) % fibLen
		vec[feed] = int64(ref.Uint64())
	}
	// A full lap leaves tap and feed where seeding put them (tap 0, feed
	// fibLen−fibTap), which are also the indices the lap's last step
	// used; undo the steps newest first.
	for n := 0; n < fibLen; n++ {
		vec[feed] -= vec[tap]
		feed = (feed + 1) % fibLen
		tap = (tap + 1) % fibLen
	}
	x := reduceSeed(seed)
	for i := range vec {
		vec[i] ^= seedWord(x, i)
	}
	return vec
}

// Seed resets the source to math/rand's state for seed, in the lazy mode.
func (r *fibSource) Seed(seed int64) {
	r.x = reduceSeed(seed)
	r.feed = fibLen - fibTap
}

// reduceSeed maps seed into [1, seedMod) as math/rand's seeding does.
func reduceSeed(seed int64) uint64 {
	seed %= seedMod
	if seed < 0 {
		seed += seedMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	return uint64(seed)
}

// seedWord packs the three Park–Miller values behind state word i for the
// reduced seed x, before the cooked table is XORed in.
func seedWord(x uint64, i int) int64 {
	pow := &seedPow[i]
	u := int64(mulMod(pow[0], x)) << 40
	u ^= int64(mulMod(pow[1], x)) << 20
	u ^= int64(mulMod(pow[2], x))
	return u
}

// word returns state word i as seeding leaves it for the reduced seed x.
func word(x uint64, i int) int64 { return seedWord(x, i) ^ fibCooked[i] }

// build makes full the state the lazy source stands for, in the buffer a
// previous build left if there is one: the seeded words plus the writes
// of the draws made so far. Those draws wrote words feed … fibLen−fibTap−1
// from words fibTap places above, which no draw has written, so the
// writes commute. It leaves the source out of the lazy mode.
func (r *fibSource) build() {
	if r.full == nil {
		r.full = new(fibState)
	}
	s := r.full
	s.Seed(int64(r.x))
	for i := r.feed; i < fibLen-fibTap; i++ {
		s.vec[i] += s.vec[i+fibTap]
	}
	s.tap = r.feed + fibTap
	s.feed = r.feed
	r.feed = -1
}

// mulMod returns a·x mod seedMod for a, x in [1, seedMod). Two Mersenne
// folds bring the 62-bit product to at most 2³¹, and the product is never
// a multiple of the prime modulus, so one subtraction finishes it.
func mulMod(a, x uint64) uint64 {
	p := a * x
	p = p&seedMod + p>>31
	p = p&seedMod + p>>31
	if p >= seedMod {
		p -= seedMod
	}
	return p
}

// Int63 returns a non-negative 63-bit integer.
func (r *fibSource) Int63() int64 { return int64(r.Uint64() & fibMask) }

// Uint64 returns the next 64-bit value.
func (r *fibSource) Uint64() uint64 {
	if r.feed >= 0 {
		// A lazy source's tap is feed+fibTap; while feed stays above
		// fibLen−2·fibTap, both words it reads are still as seeded.
		if r.feed > fibLen-2*fibTap {
			r.feed--
			return uint64(word(r.x, r.feed) + word(r.x, r.feed+fibTap))
		}
		r.build()
		if r.owner != nil {
			r.owner.rng = *rand.New(r.full)
		}
	}
	return r.full.Uint64()
}

// Seed resets the state to math/rand's for seed.
func (s *fibState) Seed(seed int64) {
	x := reduceSeed(seed)
	s.tap = 0
	s.feed = fibLen - fibTap
	for i := range s.vec {
		s.vec[i] = word(x, i)
	}
}

// Int63 returns a non-negative 63-bit integer.
func (s *fibState) Int63() int64 { return int64(s.Uint64() & fibMask) }

// Uint64 returns the next 64-bit value.
func (s *fibState) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += fibLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += fibLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

package simrand

import "math/rand"

// fibSource is math/rand's additive lagged-Fibonacci generator: the same
// 607-word state, tap 273, Uint64 and Int63, and the same state for every
// seed, so every stream draws exactly what rand.NewSource(seed) would.
// Only seeding differs. math/rand fills the state by stepping the
// Park–Miller generator x ← 48271·x mod (2³¹−1) through 1,841 serially
// dependent divisions; fibSource reads the same values as seedPow[k]·x₀
// mod (2³¹−1), independent products the CPU can overlap.
type fibSource struct {
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
	var r fibSource
	r.feed = fibLen - fibTap
	for n := 0; n < fibLen; n++ {
		r.feed = (r.feed + fibLen - 1) % fibLen
		r.vec[r.feed] = int64(ref.Uint64())
	}
	// A full lap leaves tap and feed where seeding put them (tap 0, feed
	// fibLen−fibTap), which are also the indices the lap's last step
	// used; undo the steps newest first.
	for n := 0; n < fibLen; n++ {
		r.vec[r.feed] -= r.vec[r.tap]
		r.feed = (r.feed + 1) % fibLen
		r.tap = (r.tap + 1) % fibLen
	}
	var none, cooked [fibLen]int64
	var chain fibSource
	chain.seed(seed, &none)
	for i := range cooked {
		cooked[i] = r.vec[i] ^ chain.vec[i]
	}
	return cooked
}

// Seed resets the state to math/rand's for seed.
func (r *fibSource) Seed(seed int64) { r.seed(seed, &fibCooked) }

func (r *fibSource) seed(seed int64, cooked *[fibLen]int64) {
	r.tap = 0
	r.feed = fibLen - fibTap
	seed %= seedMod
	if seed < 0 {
		seed += seedMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	x := uint64(seed)
	for i, pow := range &seedPow {
		u := int64(mulMod(pow[0], x)) << 40
		u ^= int64(mulMod(pow[1], x)) << 20
		u ^= int64(mulMod(pow[2], x))
		r.vec[i] = u ^ cooked[i]
	}
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
	r.tap--
	if r.tap < 0 {
		r.tap += fibLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += fibLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// Package simrand provides deterministic random-number utilities for the
// simulation: named sub-streams derived from a master seed, and the latency
// distributions (normal, lognormal, truncated) used by the Binder and
// device timing models. Every experiment takes an explicit seed so runs are
// reproducible.
package simrand

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Source is a deterministic random stream with domain-specific draws used
// across the simulator. Its generator is fibSource, which draws exactly
// what rand.NewSource would for the same seed but seeds faster and builds
// its 4.9 KB state only if the stream draws more than 273 values; the
// draws themselves (Float64, NormFloat64, ExpFloat64, Intn, Perm) are
// math/rand's rand.Rand code on top of it.
//
// The rand.Rand is held by value, so a Source is one allocation. A
// Source refers to itself and must not be copied; Reseed returns one to
// the state New starts in, keeping the built generator state for reuse,
// so a zero Source that is reseeded before use needs no allocation of its
// own.
type Source struct {
	rng rand.Rand
	src fibSource
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := new(Source)
	s.Reseed(seed)
	return s
}

// Reseed returns s to the state New(seed) starts in. The 4.9 KB generator
// state a stream builds at its 273rd draw is kept and rebuilt in place the
// next time it is needed, so reseeding allocates nothing.
func (s *Source) Reseed(seed int64) {
	s.src.Seed(seed)
	s.src.owner = s
	s.rng = *rand.New(&s.src)
}

// Derive returns a child Source whose seed is a hash of the parent seed
// space and name. Distinct names yield independent streams, so adding draws
// to one component does not perturb another ("seed hygiene").
func (s *Source) Derive(name string) *Source {
	child := new(Source)
	s.DeriveInto(child, name)
	return child
}

// DeriveInto reseeds child to the stream Derive(name) would return,
// drawing the same value from s.
func (s *Source) DeriveInto(child *Source, name string) {
	child.Reseed(int64(fnv64a(name)) ^ s.rng.Int63()) //nolint:gosec // deliberate wraparound mix
}

// fnv64a is the 64-bit FNV-1a hash of name, as hash/fnv's New64a computes
// it, without the hasher and byte-slice allocations.
func fnv64a(name string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return h
}

// DeriveIndexed returns a child stream for name[i]; convenient for
// per-participant or per-device streams.
func (s *Source) DeriveIndexed(name string, i int) *Source {
	return s.Derive(fmt.Sprintf("%s[%d]", name, i))
}

// Float64 draws from [0,1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Intn draws a uniform int from [0,n). It panics if n <= 0, matching
// math/rand semantics.
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Perm returns a random permutation of [0,n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// Bool draws true with probability p (clamped to [0,1]).
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.rng.Float64() < p
}

// Normal draws from N(mean, stddev²).
func (s *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.rng.NormFloat64()
}

// TruncNormal draws from N(mean, stddev²) truncated to [lo, hi] by
// rejection, falling back to clamping after 64 rejected draws (which only
// happens for pathological bounds).
func (s *Source) TruncNormal(mean, stddev, lo, hi float64) float64 {
	if lo > hi {
		lo, hi = hi, lo
	}
	for i := 0; i < 64; i++ {
		v := s.Normal(mean, stddev)
		if v >= lo && v <= hi {
			return v
		}
	}
	return math.Min(math.Max(mean, lo), hi)
}

// Exp draws from an exponential distribution with the given mean.
func (s *Source) Exp(mean float64) float64 {
	return s.rng.ExpFloat64() * mean
}

// Dist describes a latency distribution in a device profile. The zero value
// is a degenerate distribution that always returns 0.
type Dist struct {
	// Kind selects the distribution family.
	Kind DistKind
	// Mean is the central value in milliseconds.
	Mean float64
	// Jitter is the spread parameter in milliseconds (stddev for normal
	// kinds; ignored for constant).
	Jitter float64
	// Min and Max clamp the draw (both in milliseconds); Max <= 0 means
	// no upper clamp.
	Min, Max float64
	// SpikeProb is the probability that a draw is replaced by a scheduler
	// spike of SpikeMean milliseconds (plus jitter); it models GC pauses
	// and priority inversion that the paper observes as outlier
	// mistouches.
	SpikeProb float64
	// SpikeMean is the spike magnitude in milliseconds.
	SpikeMean float64
}

// DistKind enumerates distribution families.
type DistKind int

// Distribution families. Constant ignores jitter; Normal is truncated at
// Min/Max; Exponential uses Mean only.
const (
	DistConstant DistKind = iota + 1
	DistNormal
	DistExponential
)

// Constant returns a degenerate distribution always yielding mean ms.
func Constant(meanMS float64) Dist {
	return Dist{Kind: DistConstant, Mean: meanMS}
}

// NormalDist returns a truncated-normal distribution (never below 0 ms).
func NormalDist(meanMS, jitterMS float64) Dist {
	return Dist{Kind: DistNormal, Mean: meanMS, Jitter: jitterMS, Min: 0}
}

// Sample draws one latency from d using stream s and converts it to a
// time.Duration. A zero-valued Dist samples 0.
func (d Dist) Sample(s *Source) time.Duration {
	if d.Kind == 0 {
		return 0
	}
	var ms float64
	switch d.Kind {
	case DistConstant:
		ms = d.Mean
	case DistNormal:
		hi := d.Max
		if hi <= 0 {
			hi = d.Mean + 8*d.Jitter + 1
		}
		ms = s.TruncNormal(d.Mean, d.Jitter, d.Min, hi)
	case DistExponential:
		ms = d.Min + s.Exp(d.Mean)
	default:
		panic(fmt.Sprintf("simrand: unknown DistKind %d", d.Kind))
	}
	if d.SpikeProb > 0 && s.Bool(d.SpikeProb) {
		ms += math.Abs(s.Normal(d.SpikeMean, d.SpikeMean/4+0.01))
	}
	if ms < 0 {
		ms = 0
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// MeanDuration reports the distribution's nominal mean as a duration,
// ignoring spikes; used by analytical checks against Equation (2).
func (d Dist) MeanDuration() time.Duration {
	return time.Duration(d.Mean * float64(time.Millisecond))
}

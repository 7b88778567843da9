package ring

import (
	"sync"
	"time"
)

// breakerState is the classic three-state circuit.
type breakerState int

const (
	breakerClosed   breakerState = iota // requests flow
	breakerOpen                         // requests skip the peer until cooldown
	breakerHalfOpen                     // one trial request probes recovery
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is a per-peer circuit breaker. Threshold consecutive failures
// open it; after cooldown the next allow() admits exactly one trial
// (half-open); the trial's outcome closes or re-opens the circuit. Both
// the request path and the background health probe feed it, so a peer
// that dies between requests is discovered by the probe and a peer that
// recovers is readmitted within one cooldown either way.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	state    breakerState
	failures int
	openedAt time.Time
	opens    uint64
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// allow reports whether a request may be sent to the peer now. In the
// open state it flips to half-open once the cooldown has elapsed,
// admitting a single trial; further callers keep being refused until
// that trial reports an outcome.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if time.Since(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			return true
		}
		return false
	default: // half-open: one trial is already out
		return false
	}
}

// onSuccess records a successful exchange with the peer.
func (b *breaker) onSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.failures = 0
}

// onFailure records a failed exchange; a half-open trial failure
// re-opens immediately, a closed-state failure opens at the threshold.
func (b *breaker) onFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	if b.state == breakerHalfOpen || (b.state == breakerClosed && b.failures >= b.threshold) {
		b.state = breakerOpen
		b.openedAt = time.Now()
		b.opens++
	} else if b.state == breakerOpen {
		// A failure while open (e.g. a probe racing the trial) restarts
		// the cooldown.
		b.openedAt = time.Now()
	}
}

// snapshot returns the state name and open-transition count.
func (b *breaker) snapshot() (string, uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state.String(), b.opens
}

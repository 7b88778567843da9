package anim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/simclock"
)

// State enumerates the lifecycle states of an Animation.
type State int

// Animation lifecycle. An animation starts Idle, becomes Running after
// Start, and ends Finished (ran to completion), Canceled (stopped abruptly)
// or Reversing→Finished (played backwards to zero, the notification-retract
// path).
const (
	StateIdle State = iota + 1
	StateRunning
	StateReversing
	StateFinished
	StateCanceled
)

// String renders the state for diagnostics.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateRunning:
		return "running"
	case StateReversing:
		return "reversing"
	case StateFinished:
		return "finished"
	case StateCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Config describes an animation to run.
type Config struct {
	// Name labels clock events for tracing.
	Name string
	// Duration is the total animation duration; must be positive.
	Duration time.Duration
	// FrameInterval is the refresh interval; zero selects
	// DefaultFrameInterval (10 ms). The first frame renders one interval
	// after Start.
	FrameInterval time.Duration
	// Interpolator eases the progress; nil selects Linear.
	Interpolator Interpolator
	// OnFrame, if non-nil, observes each rendered frame's eased value.
	OnFrame func(value float64)
	// OnEnd, if non-nil, fires when the animation finishes or is
	// canceled; completed is true only for a natural finish of the
	// forward direction.
	OnEnd func(completed bool)
	// FrameFault, if non-nil, is consulted each time a frame is
	// scheduled; dropping a frame skips one whole slot, jitter shifts the
	// next frame off the grid. The fault plane supplies this.
	FrameFault FaultFunc
}

// FaultFunc decides per-frame scheduling faults for the animation named
// name. The zero return (false, 0) leaves the frame clock untouched.
type FaultFunc func(name string) (dropFrame bool, jitter time.Duration)

// Animation is a frame-clocked animation on the simulation clock. It
// mirrors the behaviour the paper measures: the eased value advances only
// at frame boundaries, so there is a dead window between Start and the
// first frame, and cancellation between frames leaves the last rendered
// value on screen.
type Animation struct {
	clock   *simclock.Clock
	cfg     Config
	state   State
	started simclock.Duration
	value   float64 // last rendered eased value
	frameEv simclock.Handle

	// frameLabel and frameFn are the frame event's label and callback,
	// built once so scheduling a frame allocates nothing.
	frameLabel string
	frameFn    func()

	// reverse bookkeeping
	revFrom     float64
	revStarted  simclock.Duration
	revDuration time.Duration
}

// New builds an animation bound to clock. It validates the configuration.
func New(clock *simclock.Clock, cfg Config) (*Animation, error) {
	if clock == nil {
		return nil, errors.New("anim: nil clock")
	}
	a := &Animation{clock: clock}
	a.frameFn = a.frame
	if err := a.Reset(cfg); err != nil {
		return nil, err
	}
	return a, nil
}

// Reset returns the animation to the idle state New leaves it in, under
// cfg, which it validates as New does; a pending frame is canceled. An
// animation reset under the name it had keeps its frame label, so
// resetting it allocates nothing.
func (a *Animation) Reset(cfg Config) error {
	if cfg.Duration <= 0 {
		return fmt.Errorf("anim: non-positive duration %v", cfg.Duration)
	}
	if cfg.FrameInterval == 0 {
		cfg.FrameInterval = DefaultFrameInterval
	}
	if cfg.FrameInterval < 0 {
		return fmt.Errorf("anim: negative frame interval %v", cfg.FrameInterval)
	}
	if cfg.Interpolator == nil {
		cfg.Interpolator = Linear{}
	}
	if cfg.Name == "" {
		cfg.Name = "anim"
	}
	if a.frameLabel == "" || cfg.Name != a.cfg.Name {
		a.frameLabel = cfg.Name + "/frame"
	}
	a.clock.Cancel(a.frameEv)
	*a = Animation{clock: a.clock, cfg: cfg, state: StateIdle, frameLabel: a.frameLabel, frameFn: a.frameFn}
	return nil
}

// State reports the current lifecycle state.
func (a *Animation) State() State { return a.state }

// Value reports the last rendered eased value in [0,1].
func (a *Animation) Value() float64 { return a.value }

// Start begins the forward animation. Starting a non-idle animation is an
// error.
func (a *Animation) Start() error {
	if a.state != StateIdle {
		return fmt.Errorf("anim: Start in state %v", a.state)
	}
	a.state = StateRunning
	a.started = a.clock.Now()
	a.scheduleFrame()
	return nil
}

func (a *Animation) scheduleFrame() {
	interval := a.cfg.FrameInterval
	if a.cfg.FrameFault != nil {
		drop, jitter := a.cfg.FrameFault(a.cfg.Name)
		if drop {
			interval += a.cfg.FrameInterval // the slot renders nothing
		}
		if jitter > 0 {
			interval += jitter
		}
	}
	a.frameEv = a.clock.MustAfter(interval, a.frameLabel, a.frameFn)
}

func (a *Animation) frame() {
	switch a.state {
	case StateRunning:
		elapsed := a.clock.Now() - a.started
		x := float64(elapsed) / float64(a.cfg.Duration)
		a.render(a.cfg.Interpolator.Interpolate(x))
		if x >= 1 {
			a.finish(true)
			return
		}
	case StateReversing:
		elapsed := a.clock.Now() - a.revStarted
		x := 1.0
		if a.revDuration > 0 {
			x = float64(elapsed) / float64(a.revDuration)
		}
		if x >= 1 {
			a.render(0)
			a.finish(false)
			return
		}
		a.render(a.revFrom * (1 - a.cfg.Interpolator.Interpolate(x)))
	default:
		return // canceled between scheduling and firing
	}
	a.scheduleFrame()
}

func (a *Animation) render(v float64) {
	a.value = clamp01(v)
	if a.cfg.OnFrame != nil {
		a.cfg.OnFrame(a.value)
	}
}

func (a *Animation) finish(completed bool) {
	a.state = StateFinished
	a.clock.Cancel(a.frameEv)
	if a.cfg.OnEnd != nil {
		a.cfg.OnEnd(completed)
	}
}

// Cancel stops the animation immediately, leaving the last rendered value
// in place. Canceling an animation that is not running or reversing is a
// no-op.
func (a *Animation) Cancel() {
	if a.state != StateRunning && a.state != StateReversing {
		return
	}
	a.state = StateCanceled
	a.clock.Cancel(a.frameEv)
	if a.cfg.OnEnd != nil {
		a.cfg.OnEnd(false)
	}
}

// ReverseNow flips a running animation into reverse: the value animates
// from its current level back to zero over a time proportional to the
// progress already made. This is the "startTopAnimation in a reverse way"
// path System UI takes when the overlay disappears mid-animation. Reversing
// an idle or finished animation at value 0 completes immediately.
func (a *Animation) ReverseNow() error {
	switch a.state {
	case StateRunning:
		// fall through to reverse below
	case StateIdle, StateFinished, StateCanceled:
		if a.value == 0 {
			a.state = StateFinished
			return nil
		}
	case StateReversing:
		return nil // already reversing
	default:
		return fmt.Errorf("anim: ReverseNow in state %v", a.state)
	}
	a.clock.Cancel(a.frameEv)
	a.state = StateReversing
	a.revFrom = a.value
	a.revStarted = a.clock.Now()
	a.revDuration = time.Duration(float64(a.cfg.Duration) * a.revFrom)
	if a.revDuration <= 0 {
		a.render(0)
		a.finish(false)
		return nil
	}
	a.scheduleFrame()
	return nil
}

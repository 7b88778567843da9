package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/binder"
	"repro/internal/geom"
	"repro/internal/simclock"
	"repro/internal/sysserver"
)

// ToastAttackConfig configures a draw-and-destroy toast attack.
type ToastAttackConfig struct {
	// App is the malicious package. No permission is required — that is
	// the point of the toast vector.
	App binder.ProcessID
	// Bounds is the toast rectangle (e.g. the fake keyboard area).
	Bounds geom.Rect
	// Duration is the per-toast duration; the paper recommends
	// LENGTH_LONG (3.5 s) to minimize hand-offs. Defaults to ToastLong.
	Duration time.Duration
	// Content supplies the customized toast content at enqueue time
	// (e.g. the current fake sub-keyboard). Required.
	Content func() string
	// RefillInterval is how often the attack's worker thread checks its
	// local token accounting and tops the queue up. Defaults to 200 ms.
	RefillInterval time.Duration
	// TargetQueueDepth is the number of tokens the attack keeps queued
	// so the Notification Manager always has a successor to show (while
	// staying far below the 50-token cap). Defaults to 1.
	TargetQueueDepth int
}

// ToastAttack is the draw-and-destroy toast attack: a malicious app keeps
// a customized toast permanently on screen by enqueuing a successor before
// the current toast fades, exploiting the 500 ms fade-out animation to
// make hand-offs imperceptible (Section IV).
type ToastAttack struct {
	stack *sysserver.Stack
	cfg   ToastAttackConfig

	running bool
	refill  simclock.Handle
	// refillFn is the refill timer's callback, bound once so arming the
	// timer allocates nothing.
	refillFn func()
	enqueued uint64
	// firstErr records the first binder failure of the refill loop.
	firstErr error
}

// NewToastAttack validates the configuration and binds the attack to a
// stack.
func NewToastAttack(stack *sysserver.Stack, cfg ToastAttackConfig) (*ToastAttack, error) {
	if stack == nil {
		return nil, errors.New("core: nil stack")
	}
	if cfg.App == "" {
		return nil, errors.New("core: empty attacker app")
	}
	if cfg.Bounds.Empty() {
		return nil, fmt.Errorf("core: empty toast bounds %v", cfg.Bounds)
	}
	if cfg.Content == nil {
		return nil, errors.New("core: nil toast content supplier")
	}
	if cfg.Duration == 0 {
		cfg.Duration = sysserver.ToastLong
	}
	if cfg.Duration != sysserver.ToastShort && cfg.Duration != sysserver.ToastLong {
		return nil, fmt.Errorf("core: toast duration %v is not LENGTH_SHORT or LENGTH_LONG", cfg.Duration)
	}
	if cfg.RefillInterval == 0 {
		cfg.RefillInterval = 200 * time.Millisecond
	}
	if cfg.RefillInterval < 0 {
		return nil, fmt.Errorf("core: negative refill interval %v", cfg.RefillInterval)
	}
	if cfg.TargetQueueDepth == 0 {
		cfg.TargetQueueDepth = 1
	}
	if cfg.TargetQueueDepth < 0 || cfg.TargetQueueDepth >= sysserver.MaxToastTokensPerApp {
		return nil, fmt.Errorf("core: target queue depth %d out of range", cfg.TargetQueueDepth)
	}
	a := &ToastAttack{stack: stack, cfg: cfg}
	a.refillFn = a.onRefill
	return a, nil
}

// Enqueued reports how many toasts the attack has posted.
func (a *ToastAttack) Enqueued() uint64 { return a.enqueued }

// Err reports the first binder failure the attack loop hit (nil normally;
// non-nil only in a mis-wired assembly).
func (a *ToastAttack) Err() error { return a.firstErr }

func (a *ToastAttack) fail(err error) {
	if a.firstErr == nil {
		a.firstErr = err
	}
}

// Start posts the first toast and arms the refill loop (Section IV-C,
// Steps 1–3): the worker thread keeps the token queue non-empty so a new
// toast is always fetched the moment the previous one starts fading.
func (a *ToastAttack) Start() error {
	if a.running {
		return errors.New("core: toast attack already running")
	}
	a.running = true
	a.enqueue()
	a.armRefill()
	return nil
}

func (a *ToastAttack) armRefill() {
	d := a.cfg.RefillInterval
	if pl := a.stack.Faults; pl != nil {
		d += pl.PreemptPause() // scheduler preemption on the worker thread
	}
	a.refill = a.stack.Clock.MustAfter(d, "attack/toastRefill", a.refillFn)
}

// onRefill is one refill timer notification: top the queue up and re-arm.
func (a *ToastAttack) onRefill() {
	if !a.running {
		return
	}
	// The app's local token accounting; QueuedToasts stands in for the
	// count the app can maintain itself from its enqueue/expiry timing.
	if a.stack.Server.QueuedToasts(a.cfg.App) < a.cfg.TargetQueueDepth {
		a.enqueue()
	}
	a.armRefill()
}

func (a *ToastAttack) enqueue() {
	if _, err := a.stack.Bus.Call(a.cfg.App, binder.SystemServer, sysserver.MethodEnqueueToast, sysserver.EnqueueToastRequest{
		Duration: a.cfg.Duration,
		Bounds:   a.cfg.Bounds,
		Content:  a.cfg.Content(),
	}); err != nil {
		a.fail(fmt.Errorf("core: enqueueToast binder call: %w", err))
		return
	}
	a.enqueued++
}

// SwitchContent retires the current toast (Toast.cancel()) and immediately
// posts a fresh one so new content — a different fake sub-keyboard —
// replaces it as fast as the system allows. The old toast's fade-out
// bridges the transition.
func (a *ToastAttack) SwitchContent() error {
	if !a.running {
		return errors.New("core: toast attack not running")
	}
	if _, err := a.stack.Bus.Call(a.cfg.App, binder.SystemServer, sysserver.MethodCancelToast, sysserver.CancelToastRequest{}); err != nil {
		return fmt.Errorf("core: cancelToast binder call: %w", err)
	}
	a.enqueue()
	return nil
}

// Stop cancels the refill loop and retires the current toast.
func (a *ToastAttack) Stop() {
	if !a.running {
		return
	}
	a.running = false
	a.stack.Clock.Cancel(a.refill)
	if _, err := a.stack.Bus.Call(a.cfg.App, binder.SystemServer, sysserver.MethodCancelToast, sysserver.CancelToastRequest{}); err != nil {
		a.fail(fmt.Errorf("core: cancelToast binder call: %w", err))
	}
}

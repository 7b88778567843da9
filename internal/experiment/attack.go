package experiment

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/simclock"
	"repro/internal/sysserver"
	"repro/internal/sysui"
)

// planeFor builds the assembly options that put one run under prof: a
// fresh plane per run (planes are stateful), none at all for a zero
// profile so unfaulted runs keep the exact unfaulted stack. The plane is
// returned too, nil for a zero profile, for callers that report what it
// injected.
func planeFor(prof faults.Profile, seed int64) ([]sysserver.Option, *faults.Plane) {
	if prof.Zero() {
		return nil, nil
	}
	pl := faults.NewPlane(prof, seed)
	return []sysserver.Option{sysserver.WithFaults(pl)}, pl
}

// runOverlayAttackOn is the one draw-and-destroy run: it starts the
// overlay attack at window d on an assembled stack, stops it after
// attackDur, lets the stack settle for settle more, and reports the worst
// alert outcome the user could have seen. addFirst inverts the swap to
// add-then-remove, the order the paper warns against.
//
// until, when non-zero, is the outcome that decides the caller's verdict:
// the run ends at the first event after which the worst outcome reaches
// it, and reports that outcome. WorstOutcome never decreases, so no later
// event could move a verdict of the form "worst outcome < until". Zero
// runs the full attackDur + settle.
func runOverlayAttackOn(st *sysserver.Stack, d, attackDur, settle time.Duration, addFirst bool, until sysui.Outcome) (sysui.Outcome, error) {
	atk, err := core.NewOverlayAttack(st, core.OverlayAttackConfig{
		App:             AttackerApp,
		D:               d,
		Bounds:          screenOf(st.Profile),
		AddBeforeRemove: addFirst,
	})
	if err != nil {
		return 0, fmt.Errorf("experiment: build overlay attack: %w", err)
	}
	if err := atk.Start(); err != nil {
		return 0, fmt.Errorf("experiment: start overlay attack: %w", err)
	}
	st.Clock.MustAfter(attackDur, "experiment/stop", atk.Stop)
	end := st.Clock.Now() + attackDur + settle
	for st.Clock.NextEventTime() <= end && st.Clock.Step() {
		if until != 0 && st.UI.WorstOutcome() >= until {
			break
		}
	}
	if st.Clock.Stopped() {
		return 0, fmt.Errorf("experiment: run: %w", simclock.ErrStopped)
	}
	if err := atk.Err(); err != nil {
		return 0, err
	}
	return st.UI.WorstOutcome(), nil
}

// OutcomeForD runs the draw-and-destroy overlay attack on one device with
// a given attacking window for attackDur and reports the worst Λ outcome
// the user could have seen. Extra assembly options (fault plane, invariant
// monitor) pass through to the stack.
func OutcomeForD(p device.Profile, d, attackDur time.Duration, seed int64, opts ...sysserver.Option) (sysui.Outcome, error) {
	return attackOutcome(new(sysserver.Stack), p, d, attackDur, false, 0, seed, opts...)
}

// attackOutcome resets st to p and seed under opts, runs the overlay
// attack at window d for attackDur, with the §VII-B delayed-removal patch
// enabled when defend, and reports the worst alert outcome (Λ5 under
// defend means the defense won). until is runOverlayAttackOn's early stop.
func attackOutcome(st *sysserver.Stack, p device.Profile, d, attackDur time.Duration, defend bool, until sysui.Outcome, seed int64, opts ...sysserver.Option) (sysui.Outcome, error) {
	if err := resetAttackStack(st, p, seed, opts...); err != nil {
		return 0, err
	}
	if defend {
		st.Server.EnableEnhancedNotificationDefense(notifDelayT)
	}
	return runOverlayAttackOn(st, d, attackDur, 5*time.Second, false, until)
}

// largestPassingD is the one Λ1 bound search: the largest D on the
// resolution grid below ceil for which pass holds. It probes resolution
// first, returning 0 when even that fails, then bisects with grid-aligned
// midpoints. ceil must be a multiple of resolution. pass must be monotone
// (true up to the bound, false past it) up to whatever jitter its own
// votes smooth.
func largestPassingD(resolution, ceil time.Duration, pass func(d time.Duration) (bool, error)) (time.Duration, error) {
	lo, hi := resolution, ceil
	ok, err := pass(lo)
	if err != nil || !ok {
		return 0, err
	}
	for hi-lo > resolution {
		mid := (lo + hi) / 2 / resolution * resolution
		ok, err := pass(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// toastMinAlpha runs the draw-and-destroy toast attack (a fed chain of
// fake-keyboard toasts) on the device and reports the lowest on-screen
// opacity of the attacker's top toast, probed every probeEvery from 1 s to
// 15 s. tweak, when non-nil, adjusts the stack (toast fade, gap defense)
// before the attack starts.
func toastMinAlpha(p device.Profile, seed int64, probeEvery time.Duration, tweak func(*sysserver.Stack)) (float64, error) {
	st, err := sysserver.Assemble(p, seed)
	if err != nil {
		return 0, err
	}
	if tweak != nil {
		tweak(st)
	}
	atk, err := core.NewToastAttack(st, core.ToastAttackConfig{
		App:     AttackerApp,
		Bounds:  screenOf(p).Inset(100),
		Content: func() string { return "kbd" },
	})
	if err != nil {
		return 0, err
	}
	if err := atk.Start(); err != nil {
		return 0, err
	}
	minAlpha := 1.0
	var probe func()
	probe = func() {
		if st.Clock.Now() > 15*time.Second {
			return
		}
		if a := st.WM.TopToastAlpha(AttackerApp); a < minAlpha {
			minAlpha = a
		}
		st.Clock.MustAfter(probeEvery, "experiment/toastProbe", probe)
	}
	st.Clock.MustAfter(time.Second, "experiment/toastProbe", probe)
	st.Clock.MustAfter(16*time.Second, "experiment/stopToast", atk.Stop)
	if err := st.Clock.RunFor(25 * time.Second); err != nil {
		return 0, err
	}
	return minAlpha, nil
}

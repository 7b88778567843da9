package sysserver

import (
	"time"

	"repro/internal/anim"
	"repro/internal/binder"
	"repro/internal/geom"
	"repro/internal/simclock"
	"repro/internal/wm"
)

// Toast durations Android allows developers to choose.
const (
	// ToastShort is Toast.LENGTH_SHORT: 2 seconds on screen.
	ToastShort = 2 * time.Second
	// ToastLong is Toast.LENGTH_LONG: 3.5 seconds on screen.
	ToastLong = 3500 * time.Millisecond
)

// MaxToastTokensPerApp is the Android cap on queued toast tokens for one
// package (the paper: "the number of tokens associated with one app in the
// queue should be no more than 50").
const MaxToastTokensPerApp = 50

// EnqueueToastRequest is the payload of Toast.show(): the app asks the
// Notification Manager Service to display a (possibly customized) toast.
type EnqueueToastRequest struct {
	// Duration must be ToastShort or ToastLong; anything else is
	// normalized to ToastShort, matching the platform's behaviour of
	// only honoring the two constants.
	Duration time.Duration
	// Bounds is the on-screen rectangle of the toast view.
	Bounds geom.Rect
	// Content labels what the customized toast renders (e.g.
	// "fake-keyboard:lower"); the password attack switches it per
	// sub-keyboard.
	Content string
}

// toastToken is one queued toast.
type toastToken struct {
	id       uint64
	app      binder.ProcessID
	duration time.Duration
	bounds   geom.Rect
	content  string
	queuedAt time.Duration
}

// ToastRecord describes a toast that was displayed, for the experiment
// harness.
type ToastRecord struct {
	// App is the posting package.
	App binder.ProcessID
	// Content is the toast's content label.
	Content string
	// ShownAt is when the window attached; GoneAt when the fade-out
	// finished and the window detached (zero while visible).
	ShownAt, GoneAt time.Duration
}

// CancelToastRequest is the payload of Toast.cancel(): the app asks the
// Notification Manager Service to retire its currently displayed toast
// (starting the fade-out immediately) and drop its queued tokens. The
// password-stealing attack uses it to switch the fake keyboard to a new
// sub-keyboard without waiting out the toast duration.
type CancelToastRequest struct{}

// toastService is the toast half of the Notification Manager Service. It
// serializes toast display — one toast at a time per the Android 8 defense
// "Prevent apps to overlay other apps via toast windows" — while the
// window-side fade-out animation means consecutive toasts still overlap
// visually for up to the 500 ms fade.
type toastService struct {
	s *Server

	nextToken uint64
	queue     []*toastToken
	perApp    map[binder.ProcessID]int
	// current is the token whose toast is in its on-screen (pre-fade)
	// phase; nil when the display slot is free.
	current *toastToken
	// displayed counts toast windows in their pre-fade-out phase; the
	// invariant monitor checks it never exceeds one (toast serialization).
	displayed int
	// curExpiry is the pending expiry timer for the current toast;
	// curExpire runs the expiry early on Toast.cancel().
	curExpiry simclock.Handle
	curExpire func()

	// nextAllowed tracks, per app, the earliest instant the toast-gap
	// defense permits that app's next toast to start; retry is the
	// pending deferred showNext.
	nextAllowed map[binder.ProcessID]time.Duration
	retry       simclock.Handle

	records []*ToastRecord
}

func newToastService(s *Server) toastService {
	return toastService{
		s:           s,
		perApp:      make(map[binder.ProcessID]int),
		nextAllowed: make(map[binder.ProcessID]time.Duration),
	}
}

// reset empties the queue, frees the display slot and drops the records,
// as newToastService leaves them.
func (t *toastService) reset() {
	t.nextToken = 0
	clear(t.queue)
	t.queue = t.queue[:0]
	clear(t.perApp)
	t.current = nil
	t.displayed = 0
	t.curExpiry, t.curExpire = simclock.Handle{}, nil
	clear(t.nextAllowed)
	t.retry = simclock.Handle{}
	clear(t.records)
	t.records = t.records[:0]
}

// enqueue admits a token to the queue, enforcing the per-app cap, and
// starts display if the slot is free.
func (t *toastService) enqueue(from binder.ProcessID, req EnqueueToastRequest) {
	if t.perApp[from] >= t.s.toastCap() {
		t.s.stats.ToastsRejected++
		return
	}
	if req.Duration != ToastShort && req.Duration != ToastLong {
		req.Duration = ToastShort
	}
	if req.Bounds.Empty() {
		t.s.stats.ToastsRejected++
		return
	}
	t.nextToken++
	tok := &toastToken{
		id:       t.nextToken,
		app:      from,
		duration: req.Duration,
		bounds:   req.Bounds,
		content:  req.Content,
		queuedAt: t.s.clock.Now(),
	}
	t.queue = append(t.queue, tok)
	t.perApp[from]++
	t.s.stats.ToastsEnqueued++
	if t.s.monitor != nil {
		t.s.monitor.ToastQueued(from, t.perApp[from])
	}
	if t.current == nil {
		t.showNext()
	}
}

// showNext pops the head token and displays it: the Window Manager Service
// creates the toast window (taking ToastCreate), fades it in over 500 ms
// with DecelerateInterpolator, keeps it for the toast duration, then fades
// it out over 500 ms with AccelerateInterpolator. The display slot is
// released at fade-out *start*, so a queued successor begins creation while
// the old toast is still mostly opaque — the animation overlap the
// draw-and-destroy toast attack exploits.
func (t *toastService) showNext() {
	if t.current != nil || len(t.queue) == 0 {
		return
	}
	tok := t.queue[0]
	// The Section VII-B toast-gap defense: hold the same app's next
	// toast until the mandated gap after the previous fade-out.
	if t.s.toastGapDefense > 0 {
		if allowed, ok := t.nextAllowed[tok.app]; ok && t.s.clock.Now() < allowed {
			if t.retry == (simclock.Handle{}) {
				t.retry = t.s.clock.MustAfter(allowed-t.s.clock.Now(), "sysserver/toastGapDefense", func() {
					t.retry = simclock.Handle{}
					t.showNext()
				})
			}
			return
		}
	}
	t.queue = t.queue[1:]
	t.perApp[tok.app]--
	if t.perApp[tok.app] == 0 {
		delete(t.perApp, tok.app)
	}
	t.current = tok

	create := t.s.profile.ToastCreate.Sample(t.s.rng)
	t.s.clock.MustAfter(create, "sysserver/createToast", func() {
		id, err := t.s.wm.AddToastWindow(wm.Spec{Owner: tok.app, Bounds: tok.bounds})
		if err != nil {
			// Toast windows cannot fail validation here (bounds checked
			// at enqueue), but guard: release the slot.
			t.current = nil
			t.showNext()
			return
		}
		t.s.stats.ToastsShown++
		t.displayed++
		if t.s.monitor != nil {
			t.s.monitor.ToastDisplayed(t.displayed)
		}
		rec := &ToastRecord{App: tok.app, Content: tok.content, ShownAt: t.s.clock.Now()}
		t.records = append(t.records, rec)
		// The window attaches fully transparent and fades in.
		if err := t.s.wm.SetAlpha(id, 0); err != nil {
			t.s.violation("toast-window", "set alpha on fresh toast: "+err.Error())
		}
		t.runFade(id, anim.Decelerate{}, false, nil)
		// After the on-screen duration, fade out and release the slot.
		expire := func() {
			t.current = nil
			t.curExpire = nil
			t.displayed--
			if t.s.monitor != nil {
				t.s.monitor.ToastDisplayed(t.displayed)
			}
			if gap := t.s.toastGapDefense; gap > 0 {
				t.nextAllowed[tok.app] = t.s.clock.Now() + t.s.toastFade + gap
			}
			t.runFade(id, anim.Accelerate{}, true, func() {
				rec.GoneAt = t.s.clock.Now()
				if t.s.wm.Attached(id) {
					if err := t.s.wm.RemoveWindow(id); err != nil {
						t.s.violation("toast-window", "remove toast window: "+err.Error())
					}
				}
			})
			// "Once removeView is called, the System Server fetches the
			// new token and creates the new toast."
			t.showNext()
		}
		t.curExpire = expire
		t.curExpiry = t.s.clock.MustAfter(tok.duration, "sysserver/toastExpire", expire)
	})
}

// runFade animates a toast window's alpha over the toast fade duration
// (500 ms stock). For fade-in the eased value is the alpha; for fade-out
// the alpha is one minus the eased value.
func (t *toastService) runFade(id wm.WindowID, ip anim.Interpolator, out bool, onDone func()) {
	a, err := anim.New(t.s.clock, anim.Config{
		Name:         "sysserver/toastFade",
		Duration:     t.s.toastFade,
		Interpolator: ip,
		FrameFault:   t.s.frameFault,
		OnFrame: func(v float64) {
			alpha := v
			if out {
				alpha = 1 - v
			}
			// The window may already be gone if a fade-out raced a
			// manual removal; ignore.
			_ = t.s.wm.SetAlpha(id, alpha)
		},
		OnEnd: func(bool) {
			if onDone != nil {
				onDone()
			}
		},
	})
	if err != nil {
		// The fade config is validated by construction; degrade by
		// completing the fade instantly rather than crashing the run.
		t.s.violation("toast-fade", "build toast fade: "+err.Error())
		if onDone != nil {
			onDone()
		}
		return
	}
	if err := a.Start(); err != nil {
		t.s.violation("toast-fade", "start toast fade: "+err.Error())
		if onDone != nil {
			onDone()
		}
	}
}

// cancel retires the app's current toast early and drops its queued
// tokens.
func (t *toastService) cancel(from binder.ProcessID) {
	// Drop the app's queued tokens.
	kept := t.queue[:0]
	for _, tok := range t.queue {
		if tok.app == from {
			continue
		}
		kept = append(kept, tok)
	}
	t.queue = kept
	delete(t.perApp, from)
	// Retire the showing toast, if it is ours.
	if t.current != nil && t.current.app == from && t.curExpire != nil {
		t.s.clock.Cancel(t.curExpiry)
		t.curExpire()
	}
}

// Toasts exposes the toast service's display records.
func (s *Server) Toasts() []ToastRecord {
	out := make([]ToastRecord, len(s.toasts.records))
	for i, r := range s.toasts.records {
		out[i] = *r
	}
	return out
}

// QueuedToasts reports how many tokens the app currently has in the queue.
func (s *Server) QueuedToasts(app binder.ProcessID) int { return s.toasts.perApp[app] }

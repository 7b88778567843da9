// Package sysui simulates the System UI process: the notification drawer,
// the status bar, and — critically for the paper — the lifecycle of the
// overlay-alert notification. When the System Server reports that an app
// put an overlay in the foreground, System UI constructs the notification
// view (taking Tv), then plays the 360 ms slide-down animation under
// FastOutSlowIn easing via startTopAnimation(). If the overlay disappears
// mid-animation, System UI stops the slide and plays it "in a reverse way".
//
// Each alert's visual history is classified into the paper's five outcomes
// (Fig. 6):
//
//	Λ1 — nothing of the view ever rendered (the attacker's goal)
//	Λ2 — the view was partially visible
//	Λ3 — the view completed but no message or icon was drawn
//	Λ4 — the message was partially drawn
//	Λ5 — message and icon fully drawn (the defense's goal)
package sysui

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/anim"
	"repro/internal/binder"
	"repro/internal/simclock"
	"repro/internal/simrand"
)

// Binder methods served by System UI.
const (
	// MethodPostOverlayAlert asks System UI to show the "displaying over
	// other apps" notification for the payload app (binder.ProcessID).
	MethodPostOverlayAlert = "postOverlayAlert"
	// MethodRemoveOverlayAlert asks System UI to remove that alert.
	MethodRemoveOverlayAlert = "removeOverlayAlert"
)

// Message rendering model: after the view container completes, text layout
// takes MessageLayoutDelay before the first glyph appears, then the
// message draws over MessageRenderDuration; the icon appears when the
// message finishes. The paper observes that message and icon render only
// after the view container is fully drawn (the Λ3 regime of Fig. 6).
const (
	MessageLayoutDelay    = 60 * time.Millisecond
	MessageRenderDuration = 80 * time.Millisecond
)

// Outcome is the paper's Λ classification of how much of an alert a user
// could have seen.
type Outcome int

// The five outcomes of Fig. 6, ordered from invisible to fully rendered.
const (
	Lambda1 Outcome = iota + 1 // no view shown
	Lambda2                    // view partially visible
	Lambda3                    // view complete, no message/icon
	Lambda4                    // message partially drawn
	Lambda5                    // message and icon fully drawn
)

// String renders the outcome.
func (o Outcome) String() string {
	switch o {
	case Lambda1:
		return "Λ1"
	case Lambda2:
		return "Λ2"
	case Lambda3:
		return "Λ3"
	case Lambda4:
		return "Λ4"
	case Lambda5:
		return "Λ5"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Episode records one alert's life: posted when an app's overlay count went
// 0→1, removed when it returned to 0 (or never, if the attack failed).
type Episode struct {
	// App is the process the alert warned about.
	App binder.ProcessID
	// PostedAt is when System UI received the post request.
	PostedAt time.Duration
	// RemovedAt is when the alert finished retracting; zero if still
	// active.
	RemovedAt time.Duration
	// PeakCompleteness is the maximum slide-down progress rendered.
	PeakCompleteness float64
	// PeakVisiblePx is the maximum number of view pixels rendered.
	PeakVisiblePx int
	// MessageProgress is how much of the message text was drawn, 0..1.
	MessageProgress float64
	// IconShown reports whether the notification icon rendered (Λ5).
	IconShown bool
	// Active reports whether the alert is still in the drawer.
	Active bool
}

// messageVisibleThreshold is the minimum fraction of the message that must
// have rendered before a user could read any of it; below this the episode
// still counts as Λ3 (view visible, "no message or icon is displayed").
const messageVisibleThreshold = 0.05

// Classify maps the episode's peak visual state to a Λ outcome.
func (e Episode) Classify() Outcome {
	switch {
	case e.IconShown && e.MessageProgress >= 1:
		return Lambda5
	case e.MessageProgress >= messageVisibleThreshold:
		return Lambda4
	case e.PeakCompleteness >= 1:
		return Lambda3
	case e.PeakVisiblePx > 0:
		return Lambda2
	default:
		return Lambda1
	}
}

// Config configures the System UI simulation.
type Config struct {
	// Clock drives animations; required.
	Clock *simclock.Clock
	// Bus registers the System UI endpoint; required.
	Bus *binder.Bus
	// RNG samples Tv; required.
	RNG *simrand.Source
	// Tv is the notification-view construction latency distribution.
	Tv simrand.Dist
	// NotifViewHeightPx is the alert view height in pixels; required
	// positive.
	NotifViewHeightPx int
	// FrameInterval overrides the animation refresh interval; zero
	// selects the 10 ms default.
	FrameInterval time.Duration
	// SlideDuration overrides the slide-down animation duration; zero
	// selects the stock 360 ms. The ablation experiments shorten it to
	// show that the slow-in animation *is* the vulnerability.
	SlideDuration time.Duration
	// EpisodeHistory caps how many finished episodes are retained for
	// inspection; aggregates (counts, worst outcome) are exact
	// regardless. Zero selects 4096; long attack soaks would otherwise
	// accumulate one episode per draw-and-destroy cycle forever.
	EpisodeHistory int
	// FrameFault, if non-nil, perturbs the slide animation's frame
	// scheduling (supplied by the fault plane).
	FrameFault anim.FaultFunc
}

// initialEpisodes is the episode buffer a new System UI starts with,
// enough for the alert episodes of most attack runs; a longer run grows
// it, and Reset keeps what it has grown.
const initialEpisodes = 16

// slideInterpolator eases every alert's slide. It is stateless, so all
// System UIs share one boxed value.
var slideInterpolator anim.Interpolator = anim.FastOutSlowIn()

// alertSlot is the state of one alert: its app, its episode (by index,
// since episodes live by value in SystemUI.episodes), the pending view
// build, the slide, and the message render. A slot outlives its alert and
// serves the next one: it binds its event callbacks once and keeps its
// slide Animation, so an alert episode allocates nothing once the slot
// exists.
//
// A slot goes back on the free list only when nothing scheduled can still
// reach it: its alert has finished, no reversal watch is pending and its
// slide is not animating. An alert removed twice while its slide reverses
// has two watches, and the second one to end finishes it again; that
// repeat ends whatever alert the app has by then, as a removal does. The
// alert it ends that way is orphaned: its events keep running but nothing
// removes it, so its slot is retired until Reset.
type alertSlot struct {
	app binder.ProcessID
	// ep is the absolute index of the slot's episode: the number of
	// episodes posted before it since New or Reset.
	ep       uint64
	buildEv  simclock.Handle // pending view construction
	slide    *anim.Animation // built on the slot's first slide, then reset
	sliding  bool            // the current alert's slide was started
	msgStart time.Duration   // when message rendering began; -1 if not yet
	msgEv    simclock.Handle
	watches  int // pending reversal watches

	active, retired, free bool

	build, layout, render, watch func()
	onFrame                      func(float64)
	onEnd                        func(bool)
}

// newAlertSlot builds a slot and binds its callbacks.
func newAlertSlot(ui *SystemUI) *alertSlot {
	st := &alertSlot{}
	st.build = func() { ui.startSlide(st) }
	st.layout = func() {
		st.msgStart = ui.clock.Now()
		st.msgEv = ui.clock.MustAfter(MessageRenderDuration, "sysui/renderMessage", st.render)
	}
	st.render = func() {
		if ep := ui.episode(st); ep != nil {
			ep.MessageProgress = 1
			ep.IconShown = true
		}
	}
	st.watch = func() { ui.pollReversal(st) }
	st.onFrame = func(v float64) {
		ep := ui.episode(st)
		if ep == nil {
			return // trimmed from the history
		}
		if v > ep.PeakCompleteness {
			ep.PeakCompleteness = v
		}
		if px := anim.VisiblePixels(ui.cfg.NotifViewHeightPx, v); px > ep.PeakVisiblePx {
			ep.PeakVisiblePx = px
		}
	}
	st.onEnd = func(completed bool) {
		if completed {
			st.msgEv = ui.clock.MustAfter(MessageLayoutDelay, "sysui/layoutMessage", st.layout)
			return
		}
		ui.release(st)
	}
	return st
}

// SystemUI is the System UI process model.
type SystemUI struct {
	clock *simclock.Clock
	bus   *binder.Bus
	rng   *simrand.Source
	cfg   Config

	// active holds the alerts in the drawer, at most one per app; a
	// handful at most, so lookups scan it.
	active []*alertSlot
	slots  []*alertSlot
	free   []*alertSlot

	// episodes holds the retained episodes; trimmed counts the ones
	// dropped from its front.
	episodes []Episode
	trimmed  uint64

	// Exact aggregates over all episodes ever, independent of trimming.
	episodesTotal uint64
	worstEver     Outcome

	// onViolation receives internal-consistency breaches; with none
	// installed they go unreported. Either way the process degrades
	// instead of crashing.
	onViolation func(rule, detail string)

	// handleFn is the binder endpoint, bound once.
	handleFn binder.Handler
}

// SetViolationHandler installs fn to receive internal-consistency
// breaches (the invariant monitor wires itself in here). A nil fn stops
// reporting.
func (ui *SystemUI) SetViolationHandler(fn func(rule, detail string)) { ui.onViolation = fn }

func (ui *SystemUI) violation(rule, detail string) {
	if ui.onViolation != nil {
		ui.onViolation(rule, detail)
	}
}

// New builds and registers the System UI endpoint on the bus.
func New(cfg Config) (*SystemUI, error) {
	ui := &SystemUI{episodes: make([]Episode, 0, initialEpisodes)}
	ui.handleFn = ui.handle
	if err := ui.Reset(cfg); err != nil {
		return nil, err
	}
	return ui, nil
}

// Reset returns the System UI to the state New(cfg) leaves it in and
// registers its endpoint on cfg.Bus, which must not have one: no alerts,
// episodes or violation handler, and the worst outcome back at Λ1. The
// alert slots and the episode buffer are kept for reuse. The clock must
// be reset with it, since the events the alerts had pending are dropped.
func (ui *SystemUI) Reset(cfg Config) error {
	if cfg.Clock == nil {
		return errors.New("sysui: nil clock")
	}
	if cfg.Bus == nil {
		return errors.New("sysui: nil bus")
	}
	if cfg.RNG == nil {
		return errors.New("sysui: nil rng")
	}
	if cfg.NotifViewHeightPx <= 0 {
		return fmt.Errorf("sysui: non-positive notification view height %d", cfg.NotifViewHeightPx)
	}
	if cfg.FrameInterval == 0 {
		cfg.FrameInterval = anim.DefaultFrameInterval
	}
	if cfg.SlideDuration == 0 {
		cfg.SlideDuration = anim.NotificationSlideDuration
	}
	if cfg.SlideDuration < 0 {
		return fmt.Errorf("sysui: negative slide duration %v", cfg.SlideDuration)
	}
	if cfg.EpisodeHistory == 0 {
		cfg.EpisodeHistory = 4096
	}
	if cfg.EpisodeHistory < 0 {
		return fmt.Errorf("sysui: negative episode history %d", cfg.EpisodeHistory)
	}
	if cfg.Clock != ui.clock {
		// The slots' slides run on the old clock.
		clear(ui.slots)
		ui.slots = ui.slots[:0]
	}
	ui.clock, ui.bus, ui.rng, ui.cfg = cfg.Clock, cfg.Bus, cfg.RNG, cfg
	clear(ui.active)
	ui.active = ui.active[:0]
	ui.free = ui.free[:0]
	for _, st := range ui.slots {
		*st = alertSlot{slide: st.slide, free: true,
			build: st.build, layout: st.layout, render: st.render, watch: st.watch, onFrame: st.onFrame, onEnd: st.onEnd}
		ui.free = append(ui.free, st)
	}
	clear(ui.episodes)
	ui.episodes = ui.episodes[:0]
	ui.trimmed = 0
	ui.episodesTotal = 0
	ui.worstEver = Lambda1
	ui.onViolation = nil
	if err := cfg.Bus.Register(binder.SystemUI, ui.handleFn); err != nil {
		return fmt.Errorf("sysui: register endpoint: %w", err)
	}
	return nil
}

func (ui *SystemUI) handle(tx binder.Transaction) {
	app, ok := tx.Payload.(binder.ProcessID)
	if !ok {
		return // malformed payload; real Binder would throw, we drop
	}
	switch tx.Method {
	case MethodPostOverlayAlert:
		ui.postAlert(app)
	case MethodRemoveOverlayAlert:
		ui.removeAlert(app)
	}
}

// alert returns the app's alert in the drawer and its index in active,
// or nil and -1.
func (ui *SystemUI) alert(app binder.ProcessID) (*alertSlot, int) {
	for i, st := range ui.active {
		if st.app == app {
			return st, i
		}
	}
	return nil, -1
}

// episode returns the slot's episode, or nil once it has been trimmed
// from the history.
func (ui *SystemUI) episode(st *alertSlot) *Episode {
	if st.ep < ui.trimmed {
		return nil
	}
	return &ui.episodes[st.ep-ui.trimmed]
}

func (ui *SystemUI) postAlert(app binder.ProcessID) {
	if st, _ := ui.alert(app); st != nil {
		return // alert already active for this app
	}
	ui.episodes = append(ui.episodes, Episode{App: app, PostedAt: ui.clock.Now(), Active: true})
	ui.episodesTotal++
	ui.trimEpisodes()
	var st *alertSlot
	if n := len(ui.free); n > 0 {
		st, ui.free = ui.free[n-1], ui.free[:n-1]
	} else {
		st = newAlertSlot(ui)
		ui.slots = append(ui.slots, st)
	}
	st.app, st.ep = app, ui.episodesTotal-1
	st.active, st.free, st.sliding = true, false, false
	st.msgStart = -1
	ui.active = append(ui.active, st)
	// Construct the notification view (Tv), then start the slide-down.
	tv := ui.cfg.Tv.Sample(ui.rng)
	st.buildEv = ui.clock.MustAfter(tv, "sysui/buildNotifView", st.build)
}

func (ui *SystemUI) startSlide(st *alertSlot) {
	cfg := anim.Config{
		Name:          "sysui/startTopAnimation",
		Duration:      ui.cfg.SlideDuration,
		FrameInterval: ui.cfg.FrameInterval,
		FrameFault:    ui.cfg.FrameFault,
		Interpolator:  slideInterpolator,
		OnFrame:       st.onFrame,
		OnEnd:         st.onEnd,
	}
	var err error
	if st.slide == nil {
		st.slide, err = anim.New(ui.clock, cfg)
	} else {
		err = st.slide.Reset(cfg)
	}
	if err != nil {
		// The slide config is validated at New; record the breach and
		// leave the alert unanimated (it classifies from its zero state).
		ui.violation("sysui-slide", fmt.Sprintf("build slide animation: %v", err))
		return
	}
	st.sliding = true
	if err := st.slide.Start(); err != nil {
		ui.violation("sysui-slide", fmt.Sprintf("start slide animation: %v", err))
	}
}

func (ui *SystemUI) removeAlert(app binder.ProcessID) {
	st, _ := ui.alert(app)
	if st == nil {
		return
	}
	ep := ui.episode(st)
	// Freeze message progress at the interruption point.
	if st.msgStart >= 0 && ep.MessageProgress < 1 {
		frac := float64(ui.clock.Now()-st.msgStart) / float64(MessageRenderDuration)
		if frac > 1 {
			frac = 1
		}
		if frac > ep.MessageProgress {
			ep.MessageProgress = frac
		}
	}
	ui.clock.Cancel(st.buildEv) // view never constructed: clean Λ1
	ui.clock.Cancel(st.msgEv)
	if slide := st.slide; st.sliding && (slide.State() == anim.StateRunning || slide.Value() > 0) {
		// Retract with the reverse animation; the episode ends when the
		// view is fully off screen.
		if err := slide.ReverseNow(); err != nil {
			// ReverseNow on a running slide cannot fail; report and end
			// the episode at its current visual state.
			ui.violation("sysui-slide", fmt.Sprintf("reverse slide: %v", err))
			ui.finish(st)
			return
		}
		if slide.State() == anim.StateFinished {
			ui.finish(st)
			return
		}
		// The slide's OnEnd was consumed by the forward pass, so the
		// reversal's end is polled at frame granularity — deterministic
		// and cheap on the event clock.
		st.watches++
		ui.clock.MustAfter(ui.cfg.FrameInterval, "sysui/watchReversal", st.watch)
		return
	}
	ui.finish(st)
}

// pollReversal is one reversal watch: it finishes the slot's alert once
// the slide has stopped, and otherwise looks again a frame later.
func (ui *SystemUI) pollReversal(st *alertSlot) {
	if s := st.slide.State(); s == anim.StateFinished || s == anim.StateCanceled {
		st.watches--
		ui.finish(st)
		return
	}
	ui.clock.MustAfter(ui.cfg.FrameInterval, "sysui/watchReversal", st.watch)
}

// finish ends the slot's episode and takes the app's alert out of the
// drawer. That alert is the slot's own, unless this is a repeated finish
// (see alertSlot), which orphans the alert the app has now.
func (ui *SystemUI) finish(st *alertSlot) {
	if ep := ui.episode(st); ep != nil {
		ep.RemovedAt = ui.clock.Now()
		ep.Active = false
		if o := ep.Classify(); o > ui.worstEver {
			ui.worstEver = o
		}
	}
	if cur, i := ui.alert(st.app); cur != nil {
		last := len(ui.active) - 1
		ui.active[i] = ui.active[last]
		ui.active[last] = nil
		ui.active = ui.active[:last]
		cur.active = false
		cur.retired = cur != st
	}
	ui.release(st)
}

// release puts the slot back on the free list once nothing scheduled can
// reach it.
func (ui *SystemUI) release(st *alertSlot) {
	if st.active || st.retired || st.free || st.watches > 0 {
		return
	}
	if s := st.slide; st.sliding && (s.State() == anim.StateRunning || s.State() == anim.StateReversing) {
		return // its last frame releases it
	}
	st.free = true
	ui.free = append(ui.free, st)
}

// ActiveAlert reports whether an alert for app is currently in the drawer
// (in any visual state, including still-invisible).
func (ui *SystemUI) ActiveAlert(app binder.ProcessID) bool {
	st, _ := ui.alert(app)
	return st != nil
}

// AlertVisiblePx reports how many pixels of the app's alert view are
// rendered right now — zero while the entry exists but its animation has
// not yet drawn anything, which is the state the draw-and-destroy attack
// pins the alert in. This is what a user swiping down mid-attack sees.
func (ui *SystemUI) AlertVisiblePx(app binder.ProcessID) int {
	st, _ := ui.alert(app)
	if st == nil || !st.sliding {
		return 0
	}
	return anim.VisiblePixels(ui.cfg.NotifViewHeightPx, st.slide.Value())
}

// trimEpisodes drops the oldest *finished* episodes beyond the retention
// cap; exact aggregates live in episodesTotal and worstEver.
func (ui *SystemUI) trimEpisodes() {
	n := 0
	for len(ui.episodes)-n > ui.cfg.EpisodeHistory && !ui.episodes[n].Active {
		n++
	}
	clear(ui.episodes[:n])
	ui.episodes = ui.episodes[n:]
	ui.trimmed += uint64(n)
}

// Episodes returns snapshots of the retained alert episodes in post order
// (the most recent EpisodeHistory ones; see EpisodesTotal for the exact
// lifetime count).
func (ui *SystemUI) Episodes() []Episode {
	out := make([]Episode, len(ui.episodes))
	copy(out, ui.episodes)
	return out
}

// EpisodesTotal reports how many alert episodes were ever posted,
// independent of history trimming.
func (ui *SystemUI) EpisodesTotal() uint64 { return ui.episodesTotal }

// WorstOutcome reports the most visible Λ outcome over all episodes ever —
// the attacker wants this to stay Λ1. Zero episodes yield Lambda1 (nothing
// was ever shown).
func (ui *SystemUI) WorstOutcome() Outcome {
	worst := ui.worstEver
	for _, st := range ui.active {
		if o := ui.episode(st).Classify(); o > worst {
			worst = o
		}
	}
	return worst
}

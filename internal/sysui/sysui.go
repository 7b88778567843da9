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

// alertState tracks one app's active alert.
type alertState struct {
	episode  *Episode
	buildEv  simclock.Handle // pending view construction
	slide    *anim.Animation
	msgStart time.Duration // when message rendering began; -1 if not yet
	msgEv    simclock.Handle
}

// SystemUI is the System UI process model.
type SystemUI struct {
	clock *simclock.Clock
	bus   *binder.Bus
	rng   *simrand.Source
	cfg   Config

	alerts   map[binder.ProcessID]*alertState
	episodes []*Episode

	// Exact aggregates over all episodes ever, independent of trimming.
	episodesTotal uint64
	worstEver     Outcome

	// onViolation receives internal-consistency breaches; with none
	// installed they go unreported. Either way the process degrades
	// instead of crashing.
	onViolation func(rule, detail string)
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
	if cfg.Clock == nil {
		return nil, errors.New("sysui: nil clock")
	}
	if cfg.Bus == nil {
		return nil, errors.New("sysui: nil bus")
	}
	if cfg.RNG == nil {
		return nil, errors.New("sysui: nil rng")
	}
	if cfg.NotifViewHeightPx <= 0 {
		return nil, fmt.Errorf("sysui: non-positive notification view height %d", cfg.NotifViewHeightPx)
	}
	if cfg.FrameInterval == 0 {
		cfg.FrameInterval = anim.DefaultFrameInterval
	}
	if cfg.SlideDuration == 0 {
		cfg.SlideDuration = anim.NotificationSlideDuration
	}
	if cfg.SlideDuration < 0 {
		return nil, fmt.Errorf("sysui: negative slide duration %v", cfg.SlideDuration)
	}
	if cfg.EpisodeHistory == 0 {
		cfg.EpisodeHistory = 4096
	}
	if cfg.EpisodeHistory < 0 {
		return nil, fmt.Errorf("sysui: negative episode history %d", cfg.EpisodeHistory)
	}
	ui := &SystemUI{
		clock:     cfg.Clock,
		bus:       cfg.Bus,
		rng:       cfg.RNG,
		cfg:       cfg,
		alerts:    make(map[binder.ProcessID]*alertState),
		worstEver: Lambda1,
	}
	if err := cfg.Bus.Register(binder.SystemUI, ui.handle); err != nil {
		return nil, fmt.Errorf("sysui: register endpoint: %w", err)
	}
	return ui, nil
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

func (ui *SystemUI) postAlert(app binder.ProcessID) {
	if _, exists := ui.alerts[app]; exists {
		return // alert already active for this app
	}
	ep := &Episode{App: app, PostedAt: ui.clock.Now(), Active: true}
	ui.episodes = append(ui.episodes, ep)
	ui.episodesTotal++
	ui.trimEpisodes()
	st := &alertState{episode: ep, msgStart: -1}
	ui.alerts[app] = st
	// Construct the notification view (Tv), then start the slide-down.
	tv := ui.cfg.Tv.Sample(ui.rng)
	st.buildEv = ui.clock.MustAfter(tv, "sysui/buildNotifView", func() {
		ui.startSlide(app, st)
	})
}

func (ui *SystemUI) startSlide(app binder.ProcessID, st *alertState) {
	slide, err := anim.New(ui.clock, anim.Config{
		Name:          "sysui/startTopAnimation",
		Duration:      ui.cfg.SlideDuration,
		FrameInterval: ui.cfg.FrameInterval,
		FrameFault:    ui.cfg.FrameFault,
		Interpolator:  anim.FastOutSlowIn(),
		OnFrame: func(v float64) {
			if v > st.episode.PeakCompleteness {
				st.episode.PeakCompleteness = v
			}
			if px := anim.VisiblePixels(ui.cfg.NotifViewHeightPx, v); px > st.episode.PeakVisiblePx {
				st.episode.PeakVisiblePx = px
			}
		},
		OnEnd: func(completed bool) {
			if completed {
				ui.startMessageRender(app, st)
			}
		},
	})
	if err != nil {
		// The slide config is validated at New; record the breach and
		// leave the alert unanimated (it classifies from its zero state).
		ui.violation("sysui-slide", fmt.Sprintf("build slide animation: %v", err))
		return
	}
	st.slide = slide
	if err := slide.Start(); err != nil {
		ui.violation("sysui-slide", fmt.Sprintf("start slide animation: %v", err))
	}
}

func (ui *SystemUI) startMessageRender(app binder.ProcessID, st *alertState) {
	st.msgEv = ui.clock.MustAfter(MessageLayoutDelay, "sysui/layoutMessage", func() {
		st.msgStart = ui.clock.Now()
		st.msgEv = ui.clock.MustAfter(MessageRenderDuration, "sysui/renderMessage", func() {
			st.episode.MessageProgress = 1
			st.episode.IconShown = true
		})
	})
}

func (ui *SystemUI) removeAlert(app binder.ProcessID) {
	st, ok := ui.alerts[app]
	if !ok {
		return
	}
	ep := st.episode
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
	finish := func() {
		ep.RemovedAt = ui.clock.Now()
		ep.Active = false
		if o := ep.Classify(); o > ui.worstEver {
			ui.worstEver = o
		}
		delete(ui.alerts, app)
	}
	if st.slide != nil && (st.slide.State() == anim.StateRunning || st.slide.Value() > 0) {
		// Retract with the reverse animation; the episode ends when the
		// view is fully off screen.
		slide := st.slide
		if err := slide.ReverseNow(); err != nil {
			// ReverseNow on a running slide cannot fail; report and end
			// the episode at its current visual state.
			ui.violation("sysui-slide", fmt.Sprintf("reverse slide: %v", err))
			finish()
			return
		}
		if slide.State() == anim.StateFinished {
			finish()
			return
		}
		// Poll the reversal end by scheduling at each frame; simpler: we
		// re-wrap OnEnd by watching state via a chained check.
		ui.watchReversal(slide, finish)
		return
	}
	finish()
}

// watchReversal invokes done when the reversing animation finishes. The
// Animation's OnEnd was consumed by the forward pass, so we poll at frame
// granularity — deterministic and cheap on the event clock.
func (ui *SystemUI) watchReversal(a *anim.Animation, done func()) {
	var check func()
	check = func() {
		if a.State() == anim.StateFinished || a.State() == anim.StateCanceled {
			done()
			return
		}
		ui.clock.MustAfter(ui.cfg.FrameInterval, "sysui/watchReversal", check)
	}
	ui.clock.MustAfter(ui.cfg.FrameInterval, "sysui/watchReversal", check)
}

// ActiveAlert reports whether an alert for app is currently in the drawer
// (in any visual state, including still-invisible).
func (ui *SystemUI) ActiveAlert(app binder.ProcessID) bool {
	_, ok := ui.alerts[app]
	return ok
}

// AlertVisiblePx reports how many pixels of the app's alert view are
// rendered right now — zero while the entry exists but its animation has
// not yet drawn anything, which is the state the draw-and-destroy attack
// pins the alert in. This is what a user swiping down mid-attack sees.
func (ui *SystemUI) AlertVisiblePx(app binder.ProcessID) int {
	st, ok := ui.alerts[app]
	if !ok || st.slide == nil {
		return 0
	}
	return anim.VisiblePixels(ui.cfg.NotifViewHeightPx, st.slide.Value())
}

// trimEpisodes drops the oldest *finished* episodes beyond the retention
// cap; exact aggregates live in episodesTotal and worstEver.
func (ui *SystemUI) trimEpisodes() {
	for len(ui.episodes) > ui.cfg.EpisodeHistory && !ui.episodes[0].Active {
		ui.episodes[0] = nil
		ui.episodes = ui.episodes[1:]
	}
}

// Episodes returns snapshots of the retained alert episodes in post order
// (the most recent EpisodeHistory ones; see EpisodesTotal for the exact
// lifetime count).
func (ui *SystemUI) Episodes() []Episode {
	out := make([]Episode, len(ui.episodes))
	for i, ep := range ui.episodes {
		out[i] = *ep
	}
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
	for _, st := range ui.alerts {
		if o := st.episode.Classify(); o > worst {
			worst = o
		}
	}
	return worst
}

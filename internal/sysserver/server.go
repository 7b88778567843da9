// Package sysserver simulates the system_server process: the Binder-facing
// Window Manager Service and Notification Manager Service. It dispatches
// app calls (addView, removeView, Toast.show), applies the device's
// processing latencies (Tas, toast creation), maintains the per-app
// foreground-overlay alert protocol with System UI — including Android
// 10/11's ANA delay before the alert is sent — and hosts the Section VII-B
// enhanced-notification defense (delay the alert-removal notice by t,
// cancel the removal if the same app re-adds an overlay).
package sysserver

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/anim"
	"repro/internal/binder"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/invariant"
	"repro/internal/simclock"
	"repro/internal/simrand"
	"repro/internal/sysui"
	"repro/internal/wm"
)

// Binder methods served by system_server.
const (
	// MethodAddView adds a window (payload AddViewRequest).
	MethodAddView = "addView"
	// MethodRemoveView removes a window (payload RemoveViewRequest).
	MethodRemoveView = "removeView"
	// MethodEnqueueToast enqueues a toast (payload EnqueueToastRequest).
	MethodEnqueueToast = "enqueueToast"
	// MethodCancelToast cancels the caller's current and queued toasts
	// (payload CancelToastRequest).
	MethodCancelToast = "cancelToast"
)

// AddViewRequest asks the Window Manager Service to attach a window. The
// caller names the view with its own Handle and uses the same handle to
// remove it; the owner is always taken from the Binder caller identity, so
// apps cannot spoof each other.
type AddViewRequest struct {
	// Handle is the caller-chosen view identifier.
	Handle uint64
	// Type is the window type.
	Type wm.WindowType
	// Bounds is the window rectangle.
	Bounds geom.Rect
	// Flags are the window flags.
	Flags wm.Flags
	// OnTouch receives the window's touch events in the caller app.
	OnTouch wm.TouchHandler
}

// RemoveViewRequest asks the Window Manager Service to detach a window by
// the caller's handle.
type RemoveViewRequest struct {
	// Handle is the handle given at add time.
	Handle uint64
}

// Result codes reported through Stats (Binder calls here are oneway, so
// failures surface as counters the way they surface as dropped frames or
// log lines on a real device).
type Stats struct {
	// AddsCompleted counts windows successfully attached.
	AddsCompleted uint64
	// AddsRejected counts adds refused (permission, protection, type).
	AddsRejected uint64
	// RemovesCompleted counts windows detached.
	RemovesCompleted uint64
	// RemovesUnknown counts removes for unknown handles.
	RemovesUnknown uint64
	// ToastsEnqueued counts accepted toast tokens.
	ToastsEnqueued uint64
	// ToastsRejected counts tokens refused by the 50-per-app cap.
	ToastsRejected uint64
	// ToastsShown counts toast windows actually displayed.
	ToastsShown uint64
}

// Config configures the system server.
type Config struct {
	// Clock drives processing delays; required.
	Clock *simclock.Clock
	// Bus carries Binder traffic; required.
	Bus *binder.Bus
	// RNG samples processing latencies; required.
	RNG *simrand.Source
	// Profile supplies the device's timing model; required (use
	// device.Seed().Default() for a generic phone).
	Profile device.Profile
	// WM is the window-management state machine; required.
	WM *wm.Manager
}

// Server is the system_server process model.
type Server struct {
	clock   *simclock.Clock
	bus     *binder.Bus
	rng     *simrand.Source
	profile device.Profile
	wm      *wm.Manager

	// handles maps (app, handle) → attached windows in attach order.
	// addView/removeView pair FIFO per handle: on a real device addView
	// blocks until the window is attached, so a removeView always
	// targets the oldest outstanding attachment of that view object.
	handles map[viewKey][]wm.WindowID
	// pendingRemoves counts removeViews that raced ahead of their
	// still-processing addView (possible in the simulation when a
	// scheduler spike delays the attach); the attach completes and
	// immediately detaches.
	pendingRemoves map[viewKey]int

	// alertPosted tracks whether the overlay alert for an app has been
	// sent to System UI; pendingPost holds the ANA-delay timer.
	alertPosted map[binder.ProcessID]bool
	pendingPost map[binder.ProcessID]simclock.Handle

	// Enhanced-notification defense (Section VII-B): when defenseDelay
	// is positive, alert removal is postponed by that long and canceled
	// if the app re-adds an overlay meanwhile.
	defenseDelay   time.Duration
	pendingRemoval map[binder.ProcessID]simclock.Handle

	// anaDelay is the delay before the alert is sent (normally the
	// version's ANA delay; ablations override it).
	anaDelay time.Duration
	// toastFade is the toast enter/exit animation duration (normally
	// 500 ms; ablations shorten it).
	toastFade time.Duration
	// toastGapDefense, when positive, is the Section VII-B toast
	// scheduling defense: the Notification Manager waits this long after
	// a toast's fade-out *completes* before showing the same app's next
	// toast, forcing a visible flicker between successive toasts.
	toastGapDefense time.Duration

	// frameFault, when non-nil, perturbs toast fade frame scheduling
	// (supplied by the fault plane via WithFaults).
	frameFault anim.FaultFunc
	// monitor, when non-nil, receives invariant probes and internal
	// breaches; otherwise breaches go unreported.
	monitor *invariant.Monitor
	// toastCapOverride, when positive, replaces MaxToastTokensPerApp
	// (fault ablation hook; raising it past the platform cap lets tests
	// drive the queue into invariant-violating territory).
	toastCapOverride int

	toasts toastService
	stats  Stats
}

type viewKey struct {
	app    binder.ProcessID
	handle uint64
}

// New builds the system server and registers its Binder endpoint.
func New(cfg Config) (*Server, error) {
	if cfg.Clock == nil {
		return nil, errors.New("sysserver: nil clock")
	}
	if cfg.Bus == nil {
		return nil, errors.New("sysserver: nil bus")
	}
	if cfg.RNG == nil {
		return nil, errors.New("sysserver: nil rng")
	}
	if cfg.WM == nil {
		return nil, errors.New("sysserver: nil window manager")
	}
	s := &Server{
		clock:          cfg.Clock,
		bus:            cfg.Bus,
		rng:            cfg.RNG,
		profile:        cfg.Profile,
		wm:             cfg.WM,
		handles:        make(map[viewKey][]wm.WindowID),
		pendingRemoves: make(map[viewKey]int),
		alertPosted:    make(map[binder.ProcessID]bool),
		pendingPost:    make(map[binder.ProcessID]simclock.Handle),
		pendingRemoval: make(map[binder.ProcessID]simclock.Handle),
		anaDelay:       cfg.Profile.Version.ANADelay(),
		toastFade:      anim.ToastFadeDuration,
	}
	s.toasts = newToastService(s)
	if err := cfg.Bus.Register(binder.SystemServer, s.handle); err != nil {
		return nil, fmt.Errorf("sysserver: register endpoint: %w", err)
	}
	cfg.WM.OnOverlayCountChange(s.onOverlayCountChange)
	return s, nil
}

// Stats returns the server's counters.
func (s *Server) Stats() Stats { return s.stats }

// SetMonitor routes the server's invariant probes and internal breaches to
// the runtime monitor.
func (s *Server) SetMonitor(m *invariant.Monitor) { s.monitor = m }

// SetFrameFault installs a per-frame fault hook for the toast fade
// animations (the fault plane supplies it).
func (s *Server) SetFrameFault(fn anim.FaultFunc) { s.frameFault = fn }

// SetToastCapOverride overrides the 50-token per-app toast cap; n <= 0
// restores the platform default. The invariant monitor still checks
// against the platform cap, so raising the override seeds a detectable
// DESIGN §6 violation.
func (s *Server) SetToastCapOverride(n int) { s.toastCapOverride = n }

func (s *Server) toastCap() int {
	if s.toastCapOverride > 0 {
		return s.toastCapOverride
	}
	return MaxToastTokensPerApp
}

// violation reports an internal-consistency breach to the monitor, when
// one is attached, without crashing the run.
func (s *Server) violation(rule, detail string) {
	if s.monitor != nil {
		s.monitor.Report(rule, detail)
	}
}

// EnableEnhancedNotificationDefense turns on the Section VII-B defense with
// removal delay t (the paper validates t = 690 ms on a Pixel 2). A
// non-positive t disables the defense.
func (s *Server) EnableEnhancedNotificationDefense(t time.Duration) {
	if t < 0 {
		t = 0
	}
	s.defenseDelay = t
}

// SetANADelay overrides the delay before the overlay alert is sent
// (ablation hook; the profile's Android version sets the default).
func (s *Server) SetANADelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.anaDelay = d
}

// ANADelay reports the configured alert-send delay.
func (s *Server) ANADelay() time.Duration { return s.anaDelay }

// SetToastFade overrides the toast enter/exit animation duration (ablation
// hook; stock Android uses 500 ms). Durations below one frame effectively
// disable the fade.
func (s *Server) SetToastFade(d time.Duration) {
	if d < time.Millisecond {
		d = time.Millisecond
	}
	s.toastFade = d
}

// EnableToastGapDefense turns on the scheduling defense the paper sketches
// against the draw-and-destroy toast attack: successive toasts of the same
// app are separated by a mandatory gap after the previous fade-out
// completes, so a toast chain visibly flickers. Non-positive gap disables.
func (s *Server) EnableToastGapDefense(gap time.Duration) {
	if gap < 0 {
		gap = 0
	}
	s.toastGapDefense = gap
}

func (s *Server) handle(tx binder.Transaction) {
	switch tx.Method {
	case MethodAddView:
		if req, ok := tx.Payload.(AddViewRequest); ok {
			s.addView(tx.From, req)
		}
	case MethodRemoveView:
		if req, ok := tx.Payload.(RemoveViewRequest); ok {
			s.removeView(tx.From, req)
		}
	case MethodEnqueueToast:
		if req, ok := tx.Payload.(EnqueueToastRequest); ok {
			s.toasts.enqueue(tx.From, req)
		}
	case MethodCancelToast:
		if _, ok := tx.Payload.(CancelToastRequest); ok {
			s.toasts.cancel(tx.From)
		}
	}
}

// addView processes an addView transaction: after the Tas processing
// delay, the window attaches (triggering the overlay-count listener, which
// drives the alert protocol).
func (s *Server) addView(from binder.ProcessID, req AddViewRequest) {
	tas := s.profile.Tas.Sample(s.rng)
	s.clock.MustAfter(tas, "sysserver/attachWindow", func() {
		key := viewKey{app: from, handle: req.Handle}
		id, err := s.wm.AddWindow(wm.Spec{
			Owner:   from,
			Type:    req.Type,
			Bounds:  req.Bounds,
			Flags:   req.Flags,
			OnTouch: req.OnTouch,
		})
		if err != nil {
			s.stats.AddsRejected++
			return
		}
		s.stats.AddsCompleted++
		if s.pendingRemoves[key] > 0 {
			// The paired remove raced ahead; honor it now.
			s.pendingRemoves[key]--
			if s.pendingRemoves[key] == 0 {
				delete(s.pendingRemoves, key)
			}
			if err := s.wm.RemoveWindow(id); err == nil {
				s.stats.RemovesCompleted++
			}
			return
		}
		s.handles[key] = append(s.handles[key], id)
	})
}

// removeView processes a removeView transaction. Removal is instantaneous
// on arrival (the paper: "System Server removes O1 instantly") and targets
// the oldest outstanding attachment of the handle.
func (s *Server) removeView(from binder.ProcessID, req RemoveViewRequest) {
	key := viewKey{app: from, handle: req.Handle}
	ids := s.handles[key]
	if len(ids) == 0 {
		// A remove that outran its (spike-delayed) add: queue it against
		// the attach. A truly unknown handle also lands here, which is
		// harmless — no attach will ever consume it.
		s.pendingRemoves[key]++
		s.stats.RemovesUnknown++
		return
	}
	id := ids[0]
	// Shift in place so the handle keeps its slice, and the next attach
	// of the handle appends without allocating.
	s.handles[key] = ids[:copy(ids, ids[1:])]
	if err := s.wm.RemoveWindow(id); err != nil {
		s.stats.RemovesUnknown++
		return
	}
	s.stats.RemovesCompleted++
}

// onOverlayCountChange implements the alert protocol on 0↔1 transitions.
func (s *Server) onOverlayCountChange(app binder.ProcessID, old, new int) {
	switch {
	case old == 0 && new > 0:
		s.overlayAppeared(app)
	case old > 0 && new == 0:
		s.overlayGone(app)
	}
}

func (s *Server) overlayAppeared(app binder.ProcessID) {
	// If a (possibly defense-delayed) removal is pending, the overlay is
	// back: cancel the removal and keep the alert.
	if ev, ok := s.pendingRemoval[app]; ok {
		s.clock.Cancel(ev)
		delete(s.pendingRemoval, app)
		return
	}
	if _, pending := s.pendingPost[app]; pending || s.alertPosted[app] {
		return
	}
	send := func() {
		delete(s.pendingPost, app)
		s.alertPosted[app] = true
		s.callSysUI(sysui.MethodPostOverlayAlert, app)
	}
	if s.anaDelay > 0 {
		// Android 10/11: wait for the Android Notification Assistant.
		s.pendingPost[app] = s.clock.MustAfter(s.anaDelay, "sysserver/anaDelay", send)
		return
	}
	send()
}

func (s *Server) overlayGone(app binder.ProcessID) {
	// Overlay disappeared while the post is still held by the ANA delay:
	// never send the alert at all.
	if ev, ok := s.pendingPost[app]; ok {
		s.clock.Cancel(ev)
		delete(s.pendingPost, app)
		return
	}
	if !s.alertPosted[app] {
		return
	}
	remove := func() {
		delete(s.pendingRemoval, app)
		if s.wm.OverlayCount(app) > 0 {
			return // re-added during the defense delay
		}
		delete(s.alertPosted, app)
		s.callSysUI(sysui.MethodRemoveOverlayAlert, app)
	}
	if s.defenseDelay > 0 {
		s.pendingRemoval[app] = s.clock.MustAfter(s.defenseDelay, "sysserver/defenseDelay", remove)
		return
	}
	remove()
}

func (s *Server) callSysUI(method string, app binder.ProcessID) {
	if _, err := s.bus.Call(binder.SystemServer, binder.SystemUI, method, app); err != nil {
		// System UI missing is a wiring bug in a simulation assembly;
		// record it and degrade instead of crashing the run.
		s.violation("sysserver-sysui-call", err.Error())
	}
}

// latencyForMethod maps a Binder method to the device profile's latency
// distribution; Assemble wires it into the Bus.
func latencyForMethod(p device.Profile) binder.LatencyFunc {
	return func(from, to binder.ProcessID, method string) simrand.Dist {
		switch {
		case to == binder.SystemServer && method == MethodAddView:
			return p.Tam
		case to == binder.SystemServer && method == MethodRemoveView:
			return p.Trm
		case to == binder.SystemServer && method == MethodEnqueueToast,
			to == binder.SystemServer && method == MethodCancelToast:
			return p.ToastNotify
		case to == binder.SystemUI && method == sysui.MethodPostOverlayAlert:
			return p.TnShow
		case to == binder.SystemUI && method == sysui.MethodRemoveOverlayAlert:
			return p.TnRemove
		default:
			return simrand.Constant(1)
		}
	}
}

// Stack is a fully wired simulated Android stack for one device.
type Stack struct {
	Clock   *simclock.Clock
	Bus     *binder.Bus
	WM      *wm.Manager
	Server  *Server
	UI      *sysui.SystemUI
	Profile device.Profile
	RNG     *simrand.Source
	// Faults is the fault-injection plane when assembled WithFaults;
	// nil in an unfaulted stack.
	Faults *faults.Plane
	// Monitor is the runtime invariant monitor when assembled
	// WithMonitor; nil otherwise.
	Monitor *invariant.Monitor
}

// Option adjusts stack assembly; the ablation experiments use these to
// knock out individual mechanisms.
type Option func(*assembleOptions)

type assembleOptions struct {
	slideDuration time.Duration
	plane         *faults.Plane
	monitor       bool
}

// WithSlideDuration overrides the notification slide-down animation
// duration (default: the profile's SlideDuration — stock 360 ms scaled
// by the device's animator_duration_scale).
func WithSlideDuration(d time.Duration) Option {
	return func(o *assembleOptions) { o.slideDuration = d }
}

// WithFaults threads a fault-injection plane through the stack: binder
// drops/duplicates/spikes/reordering, frame faults on the slide and toast
// fade animations, and (when the profile enables it) a toast-pressure
// pump. A nil plane — or a plane built from a zero profile — leaves the
// assembled stack byte-identical to an unfaulted one.
//
// A profile with toast pressure keeps a recurring pump event scheduled, so
// such stacks must be driven with bounded runs (RunFor/RunUntil), never
// the run-to-empty Run().
func WithFaults(pl *faults.Plane) Option {
	return func(o *assembleOptions) { o.plane = pl }
}

// WithMonitor attaches a runtime invariant monitor to the assembled
// stack's clock, bus, window manager and notification manager. The
// monitor observes only; the run's event schedule is unchanged.
func WithMonitor() Option {
	return func(o *assembleOptions) { o.monitor = true }
}

// faultsNoiseApp posts the toast-pressure bursts.
const faultsNoiseApp binder.ProcessID = "com.noise.app"

// toastPumpInterval paces the toast-pressure pump.
const toastPumpInterval = 250 * time.Millisecond

// Assemble wires a complete stack — clock, Binder bus with the profile's
// latency model, window manager, system server and System UI — from a
// device profile and seed. This is the entry point examples and the
// experiment harness use.
func Assemble(profile device.Profile, seed int64, opts ...Option) (*Stack, error) {
	var ao assembleOptions
	for _, opt := range opts {
		opt(&ao)
	}
	if ao.slideDuration == 0 {
		// The profile decides the slide animation's length: stock 360 ms
		// for the seed devices, scaled by animator_duration_scale for
		// generated ones, and a single frame for the animations-off
		// accessibility population.
		ao.slideDuration = profile.SlideDuration()
	}
	clock := simclock.New()
	root := simrand.New(seed)
	bus, err := binder.NewBus(binder.Config{
		Clock:   clock,
		RNG:     root.Derive("binder"),
		Latency: latencyForMethod(profile),
	})
	if err != nil {
		return nil, fmt.Errorf("sysserver: assemble bus: %w", err)
	}
	screen := geom.RectWH(0, 0, float64(profile.ScreenW), float64(profile.ScreenH))
	manager, err := wm.NewManager(clock, screen)
	if err != nil {
		return nil, fmt.Errorf("sysserver: assemble wm: %w", err)
	}
	server, err := New(Config{
		Clock:   clock,
		Bus:     bus,
		RNG:     root.Derive("sysserver"),
		Profile: profile,
		WM:      manager,
	})
	if err != nil {
		return nil, fmt.Errorf("sysserver: assemble server: %w", err)
	}
	uiCfg := sysui.Config{
		Clock:             clock,
		Bus:               bus,
		RNG:               root.Derive("sysui"),
		Tv:                profile.Tv,
		NotifViewHeightPx: profile.NotifViewHeightPx,
		SlideDuration:     ao.slideDuration,
	}
	if ao.plane != nil {
		uiCfg.FrameFault = ao.plane.FrameFault
	}
	ui, err := sysui.New(uiCfg)
	if err != nil {
		return nil, fmt.Errorf("sysserver: assemble sysui: %w", err)
	}
	st := &Stack{
		Clock:   clock,
		Bus:     bus,
		WM:      manager,
		Server:  server,
		UI:      ui,
		Profile: profile,
		RNG:     root,
	}
	if ao.monitor {
		mon := invariant.New(clock)
		mon.AttachClock()
		mon.AttachBus(bus)
		mon.AttachWM(manager)
		server.SetMonitor(mon)
		ui.SetViolationHandler(func(rule, detail string) { mon.Report(rule, detail) })
		st.Monitor = mon
	}
	if ao.plane != nil {
		st.Faults = ao.plane
		bus.SetFaultInjector(ao.plane)
		server.SetFrameFault(ao.plane.FrameFault)
		if ao.plane.ToastPressureActive() {
			// The pump is armed only when the profile actually exerts
			// toast pressure; otherwise the event queue must stay exactly
			// as an unfaulted run would leave it (the clock would also
			// never drain with a perpetual pump scheduled).
			noiseBounds := geom.RectWH(0, float64(profile.ScreenH)-200, float64(profile.ScreenW), 120)
			var pump func()
			pump = func() {
				for i := 0; i < ao.plane.ToastBurst(); i++ {
					// system_server is always registered in an assembled
					// stack; a failed call is recorded by the bus.
					_, _ = bus.Call(faultsNoiseApp, binder.SystemServer, MethodEnqueueToast, EnqueueToastRequest{
						Duration: ToastShort,
						Bounds:   noiseBounds,
						Content:  "faults/noise",
					})
				}
				clock.MustAfter(toastPumpInterval, "faults/toastPump", pump)
			}
			clock.MustAfter(toastPumpInterval, "faults/toastPump", pump)
		}
	}
	return st, nil
}

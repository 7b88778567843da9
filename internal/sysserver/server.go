// Package sysserver simulates the system_server process: the Binder-facing
// Window Manager Service and Notification Manager Service. It dispatches
// app calls (addView, removeView, Toast.show), applies the device's
// processing latencies (Tas, toast creation), maintains the per-app
// foreground-overlay alert protocol with System UI — including Android
// 10/11's ANA delay before the alert is sent — and hosts the Section VII-B
// enhanced-notification defense (delay the alert-removal notice by t,
// cancel the removal if the same app re-adds an overlay).
//
// A Stack is reusable: Reset returns it to the state Assemble leaves, and
// Assemble is a new Stack plus Reset. The server's scheduled callbacks are
// bound once per pending-attach slot or per app, not per call, so a reset
// stack runs an attack's alert episodes without allocating.
package sysserver

import (
	"errors"
	"fmt"
	"slices"
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
	// targets the oldest outstanding attachment of that view object. A
	// handle keeps its slice, emptied, across removals and Reset.
	handles map[viewKey][]wm.WindowID
	// pendingRemoves counts removeViews that raced ahead of their
	// still-processing addView (possible in the simulation when a
	// scheduler spike delays the attach); the attach completes and
	// immediately detaches.
	pendingRemoves map[viewKey]int

	// attaches are the addViews waiting out Tas, in the order they were
	// scheduled. Their clock events all run attachFn, and the clock
	// fires them in (time, scheduling) order, so each firing attaches
	// the entry due first, the earliest-scheduled of those due together.
	attaches []pendingAttach
	attachFn func()

	// alerts holds each app's alert-protocol state, made at the app's
	// first overlay and kept, cleared, across Reset.
	alerts map[binder.ProcessID]*appAlert

	// Enhanced-notification defense (Section VII-B): when defenseDelay
	// is positive, alert removal is postponed by that long and canceled
	// if the app re-adds an overlay meanwhile.
	defenseDelay time.Duration

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

	// handleFn and countFn are the binder endpoint and the overlay-count
	// listener, bound once.
	handleFn binder.Handler
	countFn  wm.OverlayCountListener
}

type viewKey struct {
	app    binder.ProcessID
	handle uint64
}

// pendingAttach is one addView waiting out Tas until at.
type pendingAttach struct {
	at   time.Duration
	from binder.ProcessID
	req  AddViewRequest
}

// appAlert is one app's side of the alert protocol: whether the alert was
// sent to System UI, the pending ANA-delay send and defense-delay removal
// (zero Handles when none is pending), the callbacks those timers run,
// bound once, and the app name boxed once as the payload of its calls to
// System UI.
type appAlert struct {
	app           binder.ProcessID
	payload       any
	posted        bool
	post, removal simclock.Handle
	send, remove  func()
}

// New builds the system server and registers its Binder endpoint.
func New(cfg Config) (*Server, error) {
	s := &Server{
		handles:        make(map[viewKey][]wm.WindowID),
		pendingRemoves: make(map[viewKey]int),
		alerts:         make(map[binder.ProcessID]*appAlert),
	}
	s.toasts = newToastService(s)
	s.handleFn = s.handle
	s.countFn = s.onOverlayCountChange
	s.attachFn = s.attachNext
	if err := s.reset(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// reset returns the server to the state New(cfg) leaves it in: endpoint
// registered on cfg.Bus, which must not have one, and overlay-count
// listener installed on cfg.WM; no views, pending attaches, alerts,
// toasts or stats; the profile's ANA delay and every override and defense
// off. The bus, window manager and clock must be reset with it.
func (s *Server) reset(cfg Config) error {
	if cfg.Clock == nil {
		return errors.New("sysserver: nil clock")
	}
	if cfg.Bus == nil {
		return errors.New("sysserver: nil bus")
	}
	if cfg.RNG == nil {
		return errors.New("sysserver: nil rng")
	}
	if cfg.WM == nil {
		return errors.New("sysserver: nil window manager")
	}
	s.clock, s.bus, s.rng, s.profile, s.wm = cfg.Clock, cfg.Bus, cfg.RNG, cfg.Profile, cfg.WM
	for k, ids := range s.handles {
		s.handles[k] = ids[:0]
	}
	clear(s.pendingRemoves)
	clear(s.attaches) // drops the touch handlers
	s.attaches = s.attaches[:0]
	for _, a := range s.alerts {
		a.posted, a.post, a.removal = false, simclock.Handle{}, simclock.Handle{}
	}
	s.defenseDelay = 0
	s.anaDelay = cfg.Profile.Version.ANADelay()
	s.toastFade = anim.ToastFadeDuration
	s.toastGapDefense = 0
	s.frameFault = nil
	s.monitor = nil
	s.toastCapOverride = 0
	s.toasts.reset()
	s.stats = Stats{}
	if err := cfg.Bus.Register(binder.SystemServer, s.handleFn); err != nil {
		return fmt.Errorf("sysserver: register endpoint: %w", err)
	}
	cfg.WM.OnOverlayCountChange(s.countFn)
	return nil
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
	s.attaches = append(s.attaches, pendingAttach{at: s.clock.Now() + tas, from: from, req: req})
	s.clock.MustAfter(tas, "sysserver/attachWindow", s.attachFn)
}

// attachNext completes the pending addView that is due first.
func (s *Server) attachNext() {
	next := 0
	for i := range s.attaches {
		if s.attaches[i].at < s.attaches[next].at {
			next = i
		}
	}
	from, req := s.attaches[next].from, s.attaches[next].req
	s.attaches = slices.Delete(s.attaches, next, next+1)
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
	ids := s.handles[key]
	if ids == nil {
		ids = make([]wm.WindowID, 0, 4)
	}
	s.handles[key] = append(ids, id)
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

// alert returns the app's alert-protocol state, making it on the app's
// first overlay.
func (s *Server) alert(app binder.ProcessID) *appAlert {
	if a := s.alerts[app]; a != nil {
		return a
	}
	a := &appAlert{app: app, payload: app}
	a.send = func() {
		a.post = simclock.Handle{}
		a.posted = true
		s.callSysUI(sysui.MethodPostOverlayAlert, a)
	}
	a.remove = func() {
		a.removal = simclock.Handle{}
		if s.wm.OverlayCount(app) > 0 {
			return // re-added during the defense delay
		}
		a.posted = false
		s.callSysUI(sysui.MethodRemoveOverlayAlert, a)
	}
	s.alerts[app] = a
	return a
}

func (s *Server) overlayAppeared(app binder.ProcessID) {
	a := s.alert(app)
	// If a (possibly defense-delayed) removal is pending, the overlay is
	// back: cancel the removal and keep the alert.
	if a.removal != (simclock.Handle{}) {
		s.clock.Cancel(a.removal)
		a.removal = simclock.Handle{}
		return
	}
	if a.post != (simclock.Handle{}) || a.posted {
		return
	}
	if s.anaDelay > 0 {
		// Android 10/11: wait for the Android Notification Assistant.
		a.post = s.clock.MustAfter(s.anaDelay, "sysserver/anaDelay", a.send)
		return
	}
	a.send()
}

func (s *Server) overlayGone(app binder.ProcessID) {
	a := s.alert(app)
	// Overlay disappeared while the post is still held by the ANA delay:
	// never send the alert at all.
	if a.post != (simclock.Handle{}) {
		s.clock.Cancel(a.post)
		a.post = simclock.Handle{}
		return
	}
	if !a.posted {
		return
	}
	if s.defenseDelay > 0 {
		a.removal = s.clock.MustAfter(s.defenseDelay, "sysserver/defenseDelay", a.remove)
		return
	}
	a.remove()
}

func (s *Server) callSysUI(method string, a *appAlert) {
	if _, err := s.bus.Call(binder.SystemServer, binder.SystemUI, method, a.payload); err != nil {
		// System UI missing is a wiring bug in a simulation assembly;
		// record it and degrade instead of crashing the run.
		s.violation("sysserver-sysui-call", err.Error())
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

	// root backs RNG; the bus, server and System UI draw from the three
	// streams derived from it. Reset reseeds all four in place.
	root, busRNG, serverRNG, uiRNG simrand.Source
	// latencyFn is the bus's latency model, bound once; it reads Profile.
	latencyFn binder.LatencyFunc
	// frameFault is framePlane's frame-fault hook, bound once per plane.
	framePlane *faults.Plane
	frameFault anim.FaultFunc
	// pump is the toast-pressure pump, bound once; noiseToast is its
	// payload, boxed once per Reset.
	pump       func()
	noiseToast any
}

// Option adjusts stack assembly; the ablation experiments use these to
// knock out individual mechanisms. The zero Option changes nothing.
type Option struct {
	kind          optionKind
	slideDuration time.Duration
	plane         *faults.Plane
}

type optionKind uint8

const (
	optSlideDuration optionKind = iota + 1
	optFaults
	optMonitor
)

// WithSlideDuration overrides the notification slide-down animation
// duration (default: the profile's SlideDuration — stock 360 ms scaled
// by the device's animator_duration_scale).
func WithSlideDuration(d time.Duration) Option {
	return Option{kind: optSlideDuration, slideDuration: d}
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
func WithFaults(pl *faults.Plane) Option { return Option{kind: optFaults, plane: pl} }

// WithMonitor attaches a runtime invariant monitor to the assembled
// stack's clock, bus, window manager and notification manager. The
// monitor observes only; the run's event schedule is unchanged.
func WithMonitor() Option { return Option{kind: optMonitor} }

// faultsNoiseApp posts the toast-pressure bursts.
const faultsNoiseApp binder.ProcessID = "com.noise.app"

// toastPumpInterval paces the toast-pressure pump.
const toastPumpInterval = 250 * time.Millisecond

// Assemble wires a complete stack — clock, Binder bus with the profile's
// latency model, window manager, system server and System UI — from a
// device profile and seed. This is the entry point examples and the
// experiment harness use. It is a new Stack plus Reset.
func Assemble(profile device.Profile, seed int64, opts ...Option) (*Stack, error) {
	st := new(Stack)
	if err := st.Reset(profile, seed, opts...); err != nil {
		return nil, err
	}
	return st, nil
}

// Reset returns the stack, new or used, to exactly the state
// Assemble(profile, seed, opts...) leaves: the same event schedule, random
// streams and wiring, so every run on it fires the same events as on a
// freshly assembled stack. The stack may have been stopped anywhere, with
// events pending, transactions in flight, alerts showing or a slide
// mid-animation; Reset drops all of it. The components are reset in
// place, keeping the storage they have grown, so resetting a stack that
// has run before allocates little, and its runs' alert episodes nothing.
// The Stack's component pointers stay the same. On error the stack is
// unusable until a Reset succeeds.
func (st *Stack) Reset(profile device.Profile, seed int64, opts ...Option) error {
	var slide time.Duration
	var plane *faults.Plane
	monitor := false
	for _, o := range opts {
		switch o.kind {
		case optSlideDuration:
			slide = o.slideDuration
		case optFaults:
			plane = o.plane
		case optMonitor:
			monitor = true
		}
	}
	if slide == 0 {
		// The profile decides the slide animation's length: stock 360 ms
		// for the seed devices, scaled by animator_duration_scale for
		// generated ones, and a single frame for the animations-off
		// accessibility population.
		slide = profile.SlideDuration()
	}
	if st.Clock == nil {
		st.Clock = simclock.New()
	} else {
		st.Clock.Reset()
	}
	st.Profile = profile
	st.Monitor, st.Faults = nil, nil
	if st.latencyFn == nil {
		st.latencyFn = st.latency
	}
	st.RNG = &st.root
	st.root.Reseed(seed)
	st.root.DeriveInto(&st.busRNG, "binder")
	if st.Bus == nil {
		bus, err := binder.NewBus(binder.Config{Clock: st.Clock, RNG: &st.busRNG, Latency: st.latencyFn})
		if err != nil {
			return fmt.Errorf("sysserver: assemble bus: %w", err)
		}
		st.Bus = bus
	} else {
		st.Bus.Reset(st.latencyFn)
	}
	screen := geom.RectWH(0, 0, float64(profile.ScreenW), float64(profile.ScreenH))
	if st.WM == nil {
		manager, err := wm.NewManager(st.Clock, screen)
		if err != nil {
			return fmt.Errorf("sysserver: assemble wm: %w", err)
		}
		st.WM = manager
	} else if err := st.WM.Reset(screen); err != nil {
		return fmt.Errorf("sysserver: assemble wm: %w", err)
	}
	st.root.DeriveInto(&st.serverRNG, "sysserver")
	srvCfg := Config{Clock: st.Clock, Bus: st.Bus, RNG: &st.serverRNG, Profile: profile, WM: st.WM}
	if st.Server == nil {
		server, err := New(srvCfg)
		if err != nil {
			return fmt.Errorf("sysserver: assemble server: %w", err)
		}
		st.Server = server
	} else if err := st.Server.reset(srvCfg); err != nil {
		return fmt.Errorf("sysserver: assemble server: %w", err)
	}
	st.root.DeriveInto(&st.uiRNG, "sysui")
	if plane != nil && plane != st.framePlane {
		st.framePlane, st.frameFault = plane, plane.FrameFault
	}
	uiCfg := sysui.Config{
		Clock:             st.Clock,
		Bus:               st.Bus,
		RNG:               &st.uiRNG,
		Tv:                profile.Tv,
		NotifViewHeightPx: profile.NotifViewHeightPx,
		SlideDuration:     slide,
	}
	if plane != nil {
		uiCfg.FrameFault = st.frameFault
	}
	if st.UI == nil {
		ui, err := sysui.New(uiCfg)
		if err != nil {
			return fmt.Errorf("sysserver: assemble sysui: %w", err)
		}
		st.UI = ui
	} else if err := st.UI.Reset(uiCfg); err != nil {
		return fmt.Errorf("sysserver: assemble sysui: %w", err)
	}
	if monitor {
		mon := invariant.New(st.Clock)
		mon.AttachClock()
		mon.AttachBus(st.Bus)
		mon.AttachWM(st.WM)
		st.Server.SetMonitor(mon)
		st.UI.SetViolationHandler(func(rule, detail string) { mon.Report(rule, detail) })
		st.Monitor = mon
	}
	if plane != nil {
		st.Faults = plane
		st.Bus.SetFaultInjector(plane)
		st.Server.SetFrameFault(st.frameFault)
		if plane.ToastPressureActive() {
			// The pump is armed only when the profile actually exerts
			// toast pressure; otherwise the event queue must stay exactly
			// as an unfaulted run would leave it (the clock would also
			// never drain with a perpetual pump scheduled).
			st.noiseToast = EnqueueToastRequest{
				Duration: ToastShort,
				Bounds:   geom.RectWH(0, float64(profile.ScreenH)-200, float64(profile.ScreenW), 120),
				Content:  "faults/noise",
			}
			if st.pump == nil {
				st.pump = st.pumpToasts
			}
			st.Clock.MustAfter(toastPumpInterval, "faults/toastPump", st.pump)
		}
	}
	return nil
}

// pumpToasts is one toast-pressure tick: a burst of noise toasts, then the
// next tick.
func (st *Stack) pumpToasts() {
	for i := 0; i < st.Faults.ToastBurst(); i++ {
		// system_server is always registered in an assembled stack; a
		// failed call is recorded by the bus.
		_, _ = st.Bus.Call(faultsNoiseApp, binder.SystemServer, MethodEnqueueToast, st.noiseToast)
	}
	st.Clock.MustAfter(toastPumpInterval, "faults/toastPump", st.pump)
}

// latency maps a Binder stream to the device profile's latency
// distribution; it is the bus's latency model.
func (st *Stack) latency(from, to binder.ProcessID, method string) simrand.Dist {
	p := &st.Profile
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

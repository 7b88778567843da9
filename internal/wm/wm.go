// Package wm implements the window-management core of the simulated
// Android stack: window types and z-ordering, the SYSTEM_ALERT_WINDOW
// permission gate, the post-Android-8 built-in defenses (TYPE_TOAST
// removal, Settings-app protection), per-app foreground-overlay accounting
// (which drives the notification alert), and gesture-level touch dispatch.
//
// Touch dispatch follows real Android semantics that matter to the paper:
// a gesture is bound to the window that received its DOWN event; if that
// window is removed mid-gesture the remainder of the gesture is CANCELed.
// The draw-and-destroy overlay attack therefore loses ("mistouches") any
// gesture that straddles an overlay swap — the effect measured in Figs. 7
// and 8.
package wm

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/binder"
	"repro/internal/geom"
	"repro/internal/simclock"
)

// WindowType classifies a window; it determines the z-layer.
type WindowType int

// Window types. Toast windows sit above application overlays but are never
// touchable, so a touch aimed at a toast falls through to the topmost
// touchable window beneath it — the mechanism the password-stealing attack
// exploits by stacking transparent overlays under a fake-keyboard toast.
const (
	TypeActivity WindowType = iota + 1
	TypeInputMethod
	TypeApplicationOverlay
	TypeToast
	// TypeLegacyToast is the pre-Android-8 TYPE_TOAST window an app could
	// add directly; AddWindow rejects it (the built-in defense).
	TypeLegacyToast
)

// Layer reports the base z-layer of the type; higher layers render on top.
func (t WindowType) Layer() int {
	switch t {
	case TypeActivity:
		return 1000
	case TypeInputMethod:
		return 2000
	case TypeApplicationOverlay:
		return 3000
	case TypeToast, TypeLegacyToast:
		return 3500
	default:
		return 0
	}
}

// String renders the type for diagnostics.
func (t WindowType) String() string {
	switch t {
	case TypeActivity:
		return "activity"
	case TypeInputMethod:
		return "ime"
	case TypeApplicationOverlay:
		return "overlay"
	case TypeToast:
		return "toast"
	case TypeLegacyToast:
		return "legacy-toast"
	default:
		return fmt.Sprintf("WindowType(%d)", int(t))
	}
}

// Flags modify window behaviour.
type Flags uint32

// Window flags mirroring the Android ones the paper discusses.
const (
	// FlagNotTouchable makes touches pass through (the clickjacking
	// overlay variant).
	FlagNotTouchable Flags = 1 << iota
	// FlagTransparent marks the window visually transparent; it has no
	// effect on touch routing.
	FlagTransparent
)

// Has reports whether all bits in q are set.
func (f Flags) Has(q Flags) bool { return f&q == q }

// WindowID identifies an attached window.
type WindowID uint64

// TouchAction enumerates touch event actions.
type TouchAction int

// Touch actions following android.view.MotionEvent.
const (
	ActionDown TouchAction = iota + 1
	ActionUp
	ActionCancel
)

// String renders the action for diagnostics.
func (a TouchAction) String() string {
	switch a {
	case ActionDown:
		return "down"
	case ActionUp:
		return "up"
	case ActionCancel:
		return "cancel"
	default:
		return fmt.Sprintf("TouchAction(%d)", int(a))
	}
}

// TouchEvent is one motion event delivered to a window.
type TouchEvent struct {
	// Gesture identifies the gesture this event belongs to.
	Gesture uint64
	// Action is down, up or cancel.
	Action TouchAction
	// Pos is the screen position in pixels.
	Pos geom.Point
	// At is the virtual delivery time.
	At time.Duration
}

// TouchHandler receives events for a window.
type TouchHandler func(ev TouchEvent)

// Spec describes a window to add.
type Spec struct {
	// Owner is the process adding the window.
	Owner binder.ProcessID
	// Type classifies the window; required.
	Type WindowType
	// Bounds is the screen rectangle; must be non-empty.
	Bounds geom.Rect
	// Flags modify behaviour.
	Flags Flags
	// OnTouch receives the window's touch events; may be nil for
	// windows that ignore input.
	OnTouch TouchHandler
}

// Window is an attached window. Fields are read-only snapshots; mutate via
// Manager methods.
type Window struct {
	ID      WindowID
	Owner   binder.ProcessID
	Type    WindowType
	Bounds  geom.Rect
	Flags   Flags
	Alpha   float64
	AddedAt time.Duration

	onTouch TouchHandler
}

// Touchable reports whether the window can receive touch events right now.
// Toast windows never receive touches (Android guarantees the underlying
// activity stays interactive under a toast).
func (w *Window) Touchable() bool {
	if w.Type == TypeToast || w.Type == TypeLegacyToast {
		return false
	}
	return !w.Flags.Has(FlagNotTouchable)
}

// Errors returned by the Manager.
var (
	// ErrNoPermission indicates the app lacks SYSTEM_ALERT_WINDOW.
	ErrNoPermission = errors.New("wm: SYSTEM_ALERT_WINDOW permission not granted")
	// ErrTypeToastRemoved indicates an app tried to add a TYPE_TOAST
	// window directly, which Android 8 removed.
	ErrTypeToastRemoved = errors.New("wm: TYPE_TOAST windows were removed in Android 8.0")
	// ErrUnknownWindow indicates the window id is not attached.
	ErrUnknownWindow = errors.New("wm: unknown window")
)

// OverlayCountListener observes per-app foreground-overlay count changes;
// the Notification Manager uses the 0↔1 transitions to post and remove the
// overlay alert.
type OverlayCountListener func(app binder.ProcessID, old, new int)

// WindowEventKind classifies window lifecycle events.
type WindowEventKind int

// Window lifecycle events.
const (
	WindowAdded WindowEventKind = iota + 1
	WindowRemoved
)

// String renders the kind.
func (k WindowEventKind) String() string {
	switch k {
	case WindowAdded:
		return "added"
	case WindowRemoved:
		return "removed"
	default:
		return fmt.Sprintf("WindowEventKind(%d)", int(k))
	}
}

// WindowEvent is one window attach/detach, observed by tracers.
type WindowEvent struct {
	Kind   WindowEventKind
	Window Window
	At     time.Duration
}

// WindowEventListener observes window lifecycle events.
type WindowEventListener func(ev WindowEvent)

// Manager is the window-management state machine. It is single-threaded on
// the simulation clock.
//
// The attached windows live by value in one slice in z-order, which a
// lookup by id scans: a device has a handful of windows at a time, and a
// removed window's room in the slice takes the next attach, so attaching
// and detaching allocate nothing once the slice has grown to the run's
// peak.
type Manager struct {
	clock  *simclock.Clock
	screen geom.Rect

	nextID   WindowID
	order    []Window // kept sorted by (layer, AddedAt, ID)
	perms    map[binder.ProcessID]bool
	overlays map[binder.ProcessID]int

	countListeners  []OverlayCountListener
	windowListeners []WindowEventListener

	// onViolation receives internal-consistency breaches (overlay count
	// underflow, failed forced removals); with no handler installed they
	// go unreported. The state is clamped either way so a faulted run
	// degrades instead of crashing.
	onViolation func(rule, detail string)

	nextGesture uint64
	gestures    map[uint64]*gesture

	stats Stats
}

type gesture struct {
	id     uint64
	target WindowID
	downAt time.Duration
	done   bool
}

// Stats counts dispatch outcomes for the experiment harness.
type Stats struct {
	// Gestures is the number of gestures begun.
	Gestures uint64
	// Missed is the number of gestures whose DOWN found no touchable
	// window at the position.
	Missed uint64
	// Canceled is the number of gestures canceled because their target
	// window was removed mid-gesture.
	Canceled uint64
	// Completed is the number of gestures that delivered both DOWN and
	// UP to the same window.
	Completed uint64
}

// NewManager creates a Manager for a screen rectangle.
func NewManager(clock *simclock.Clock, screen geom.Rect) (*Manager, error) {
	if clock == nil {
		return nil, errors.New("wm: nil clock")
	}
	m := &Manager{
		clock:    clock,
		perms:    make(map[binder.ProcessID]bool),
		overlays: make(map[binder.ProcessID]int),
		gestures: make(map[uint64]*gesture),
	}
	if err := m.Reset(screen); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset returns the manager to the state NewManager leaves it in, on the
// same clock, for a screen rectangle: no windows, permissions, overlay
// counts, gestures, listeners or violation handler, and zero stats and
// ids. The storage the manager has grown is kept.
func (m *Manager) Reset(screen geom.Rect) error {
	if screen.Empty() {
		return fmt.Errorf("wm: empty screen rect %v", screen)
	}
	m.screen = screen
	m.nextID = 0
	clear(m.order) // drops the touch handlers
	m.order = m.order[:0]
	clear(m.perms)
	clear(m.overlays)
	clear(m.countListeners)
	m.countListeners = m.countListeners[:0]
	clear(m.windowListeners)
	m.windowListeners = m.windowListeners[:0]
	m.onViolation = nil
	m.nextGesture = 0
	clear(m.gestures)
	m.stats = Stats{}
	return nil
}

// Screen reports the screen rectangle.
func (m *Manager) Screen() geom.Rect { return m.screen }

// SetViolationHandler installs fn to receive internal-consistency
// breaches; the invariant monitor uses this to collect them with an
// event-time trace. A nil fn stops reporting.
func (m *Manager) SetViolationHandler(fn func(rule, detail string)) { m.onViolation = fn }

func (m *Manager) violation(rule, detail string) {
	if m.onViolation != nil {
		m.onViolation(rule, detail)
	}
}

// Stats reports dispatch counters.
func (m *Manager) Stats() Stats { return m.stats }

// GrantOverlayPermission grants SYSTEM_ALERT_WINDOW to an app.
func (m *Manager) GrantOverlayPermission(app binder.ProcessID) { m.perms[app] = true }

// RevokeOverlayPermission revokes SYSTEM_ALERT_WINDOW; attached overlays of
// the app are removed immediately (what the user achieves via Settings
// after pressing the alert).
func (m *Manager) RevokeOverlayPermission(app binder.ProcessID) {
	delete(m.perms, app)
	var buf [4]WindowID
	overlays := buf[:0]
	for _, w := range m.order {
		if w.Owner == app && w.Type == TypeApplicationOverlay {
			overlays = append(overlays, w.ID)
		}
	}
	for _, id := range overlays {
		// Removal of an attached window cannot fail; report (not crash)
		// if bookkeeping ever disagrees.
		if err := m.RemoveWindow(id); err != nil {
			m.violation("wm-revoke-removal", err.Error())
		}
	}
}

// HasOverlayPermission reports whether the app holds SYSTEM_ALERT_WINDOW.
func (m *Manager) HasOverlayPermission(app binder.ProcessID) bool { return m.perms[app] }

// OnOverlayCountChange registers a listener for per-app overlay-count
// transitions.
func (m *Manager) OnOverlayCountChange(fn OverlayCountListener) {
	if fn != nil {
		m.countListeners = append(m.countListeners, fn)
	}
}

// OnWindowEvent registers a listener for window attach/detach events.
func (m *Manager) OnWindowEvent(fn WindowEventListener) {
	if fn != nil {
		m.windowListeners = append(m.windowListeners, fn)
	}
}

func (m *Manager) notifyWindow(kind WindowEventKind, w Window) {
	for _, fn := range m.windowListeners {
		fn(WindowEvent{Kind: kind, Window: w, At: m.clock.Now()})
	}
}

// AddWindow attaches a window, enforcing the built-in defenses. It returns
// the new window id.
func (m *Manager) AddWindow(spec Spec) (WindowID, error) {
	if spec.Owner == "" {
		return 0, errors.New("wm: empty owner")
	}
	if spec.Bounds.Empty() {
		return 0, fmt.Errorf("wm: empty window bounds %v", spec.Bounds)
	}
	switch spec.Type {
	case TypeLegacyToast:
		return 0, ErrTypeToastRemoved
	case TypeApplicationOverlay:
		if !m.perms[spec.Owner] {
			return 0, ErrNoPermission
		}
	case TypeActivity, TypeInputMethod:
		// always allowed
	case TypeToast:
		return 0, errors.New("wm: toast windows must be added by the notification manager (use AddToastWindow)")
	default:
		return 0, fmt.Errorf("wm: invalid window type %v", spec.Type)
	}
	return m.attach(spec), nil
}

// AddToastWindow attaches a toast window on behalf of the Notification
// Manager Service. Apps cannot call this path directly; the NMS serializes
// and caps toast display.
func (m *Manager) AddToastWindow(spec Spec) (WindowID, error) {
	if spec.Owner == "" {
		return 0, errors.New("wm: empty owner")
	}
	if spec.Bounds.Empty() {
		return 0, fmt.Errorf("wm: empty toast bounds %v", spec.Bounds)
	}
	spec.Type = TypeToast
	return m.attach(spec), nil
}

// attach inserts the window into the z-order. A new window has the
// latest AddedAt and the largest ID, so it goes right above every window
// of its layer and below those of higher layers.
func (m *Manager) attach(spec Spec) WindowID {
	m.nextID++
	w := Window{
		ID:      m.nextID,
		Owner:   spec.Owner,
		Type:    spec.Type,
		Bounds:  spec.Bounds,
		Flags:   spec.Flags,
		Alpha:   1,
		AddedAt: m.clock.Now(),
		onTouch: spec.OnTouch,
	}
	layer := w.Type.Layer()
	at := len(m.order)
	for at > 0 && m.order[at-1].Type.Layer() > layer {
		at--
	}
	m.order = slices.Insert(m.order, at, w)
	m.notifyWindow(WindowAdded, w)
	if w.Type == TypeApplicationOverlay {
		old := m.overlays[w.Owner]
		m.overlays[w.Owner] = old + 1
		m.notifyCount(w.Owner, old, old+1)
	}
	return w.ID
}

// find returns the index of window id in the z-order, or -1.
func (m *Manager) find(id WindowID) int {
	for i := range m.order {
		if m.order[i].ID == id {
			return i
		}
	}
	return -1
}

// RemoveWindow detaches a window. Any in-flight gesture bound to it is
// canceled (the app receives ACTION_CANCEL).
func (m *Manager) RemoveWindow(id WindowID) error {
	i := m.find(id)
	if i < 0 {
		return fmt.Errorf("%w: %d", ErrUnknownWindow, id)
	}
	w := m.order[i]
	m.order = slices.Delete(m.order, i, i+1)
	for _, g := range m.gestures {
		if g.target == id && !g.done {
			g.done = true
			m.stats.Canceled++
			if w.onTouch != nil {
				w.onTouch(TouchEvent{Gesture: g.id, Action: ActionCancel, At: m.clock.Now()})
			}
		}
	}
	m.notifyWindow(WindowRemoved, w)
	if w.Type == TypeApplicationOverlay {
		old := m.overlays[w.Owner]
		if old <= 0 {
			// DESIGN §6: per-app overlay counts never go negative. Report
			// the breach and clamp at zero so the run degrades gracefully.
			m.violation("overlay-count-negative", fmt.Sprintf("remove of %q would take count %d below zero", w.Owner, old))
			m.notifyCount(w.Owner, old, old-1)
			return nil
		}
		m.overlays[w.Owner] = old - 1
		if old-1 == 0 {
			delete(m.overlays, w.Owner)
		}
		m.notifyCount(w.Owner, old, old-1)
	}
	return nil
}

func (m *Manager) notifyCount(app binder.ProcessID, old, new int) {
	for _, fn := range m.countListeners {
		fn(app, old, new)
	}
}

// SetAlpha updates a window's rendered opacity (used by toast fade
// animations). Alpha is clamped to [0,1].
func (m *Manager) SetAlpha(id WindowID, alpha float64) error {
	i := m.find(id)
	if i < 0 {
		return fmt.Errorf("%w: %d", ErrUnknownWindow, id)
	}
	w := &m.order[i]
	switch {
	case alpha < 0:
		w.Alpha = 0
	case alpha > 1:
		w.Alpha = 1
	default:
		w.Alpha = alpha
	}
	return nil
}

// Attached reports whether the window id is attached.
func (m *Manager) Attached(id WindowID) bool { return m.find(id) >= 0 }

// OverlayCount reports the app's current foreground overlay count.
func (m *Manager) OverlayCount(app binder.ProcessID) int { return m.overlays[app] }

// WindowCount reports the total number of attached windows.
func (m *Manager) WindowCount() int { return len(m.order) }

// ZOrder returns snapshots of every attached window bottom-to-top; the
// invariant monitor checks the DESIGN §6 z-order consistency rule
// (non-decreasing layer, FIFO within a layer) against it.
func (m *Manager) ZOrder() []Window {
	out := make([]Window, len(m.order))
	copy(out, m.order)
	return out
}

// TopWindowAt returns the topmost window containing p, optionally
// restricted to touchable windows. ok is false when nothing matches.
func (m *Manager) TopWindowAt(p geom.Point, touchableOnly bool) (Window, bool) {
	for i := len(m.order) - 1; i >= 0; i-- {
		w := &m.order[i]
		if !w.Bounds.Contains(p) {
			continue
		}
		if touchableOnly && !w.Touchable() {
			continue
		}
		return *w, true
	}
	return Window{}, false
}

// TopToastAlpha reports the maximum alpha among the app's attached toast
// windows; 0 when none. The flicker analyzer samples this to decide whether
// the fake keyboard ever visibly dimmed.
func (m *Manager) TopToastAlpha(app binder.ProcessID) float64 {
	maxAlpha := 0.0
	for _, w := range m.order {
		if w.Owner == app && w.Type == TypeToast && w.Alpha > maxAlpha {
			maxAlpha = w.Alpha
		}
	}
	return maxAlpha
}

// BeginGesture delivers a DOWN at p and binds the gesture to the topmost
// touchable window there. It returns the gesture id and the target window;
// ok is false when no touchable window contains p (the touch goes to the
// raw activity surface or is lost — a "mistouch" from the attacker's view).
func (m *Manager) BeginGesture(p geom.Point) (id uint64, target Window, ok bool) {
	m.stats.Gestures++
	m.nextGesture++
	gid := m.nextGesture
	top, found := m.TopWindowAt(p, true)
	if !found {
		m.stats.Missed++
		m.gestures[gid] = &gesture{id: gid, done: true}
		return gid, Window{}, false
	}
	m.gestures[gid] = &gesture{id: gid, target: top.ID, downAt: m.clock.Now()}
	if top.onTouch != nil {
		top.onTouch(TouchEvent{Gesture: gid, Action: ActionDown, Pos: p, At: m.clock.Now()})
	}
	return gid, top, true
}

// EndGesture delivers the UP at p for a gesture begun earlier. If the
// target window was removed in between, the gesture was already canceled
// and EndGesture reports completed=false.
func (m *Manager) EndGesture(id uint64, p geom.Point) (completed bool, err error) {
	g, ok := m.gestures[id]
	if !ok {
		return false, fmt.Errorf("wm: unknown gesture %d", id)
	}
	delete(m.gestures, id)
	if g.done {
		return false, nil
	}
	g.done = true
	i := m.find(g.target)
	if i < 0 {
		// RemoveWindow cancels gestures eagerly, so this is unreachable,
		// but guard anyway.
		m.stats.Canceled++
		return false, nil
	}
	m.stats.Completed++
	if w := m.order[i]; w.onTouch != nil {
		w.onTouch(TouchEvent{Gesture: id, Action: ActionUp, Pos: p, At: m.clock.Now()})
	}
	return true, nil
}

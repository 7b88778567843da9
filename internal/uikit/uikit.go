// Package uikit models the slice of the Android view/widget layer the
// password-stealing attack interacts with: a view tree with parent/child
// navigation (getParent(), the Alipay bypass), focusable text and password
// input widgets, and the accessibility-event stream
// (TYPE_VIEW_TEXT_CHANGED, TYPE_WINDOW_CONTENT_CHANGED) a malicious
// accessibility service uses to learn when a user starts typing a password
// (Section V).
package uikit

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/binder"
	"repro/internal/geom"
	"repro/internal/simclock"
)

// EventType enumerates accessibility event types (the subset the paper
// uses).
type EventType int

// Accessibility event types.
const (
	// EventViewTextChanged is TYPE_VIEW_TEXT_CHANGED: the widget's text
	// changed while the user types.
	EventViewTextChanged EventType = iota + 1
	// EventWindowContentChanged is TYPE_WINDOW_CONTENT_CHANGED: sent
	// along with text changes, and alone when focus leaves a widget.
	EventWindowContentChanged
	// EventViewFocused is TYPE_VIEW_FOCUSED: a widget gained focus.
	EventViewFocused
)

// String renders the event type with its Android constant name.
func (e EventType) String() string {
	switch e {
	case EventViewTextChanged:
		return "TYPE_VIEW_TEXT_CHANGED"
	case EventWindowContentChanged:
		return "TYPE_WINDOW_CONTENT_CHANGED"
	case EventViewFocused:
		return "TYPE_VIEW_FOCUSED"
	default:
		return fmt.Sprintf("EventType(%d)", int(e))
	}
}

// Event is one accessibility event. Source carries the live view
// reference; the paper's Alipay bypass walks Source.Parent() to reach the
// password widget whose own events are suppressed.
type Event struct {
	// Type is the accessibility event type.
	Type EventType
	// App is the package the event originates from.
	App binder.ProcessID
	// Source is the view that emitted the event.
	Source *View
	// At is the virtual emission time.
	At time.Duration
}

// Listener receives accessibility events, as a bound accessibility service
// does.
type Listener func(ev Event)

// View is a node of an activity's view tree.
type View struct {
	// ID is the resource id (e.g. "username_input").
	ID string
	// Class is the widget class name (e.g. "EditText").
	Class string
	// Bounds is the on-screen rectangle.
	Bounds geom.Rect
	// Password marks a password input (text is masked, and apps may
	// additionally disable accessibility on it).
	Password bool
	// A11yEnabled controls whether this view dispatches accessibility
	// events; Alipay sets it false on its password widget.
	A11yEnabled bool

	parent   *View
	children []*View
	text     []rune
}

// NewView constructs a view node.
func NewView(id, class string, bounds geom.Rect) *View {
	return &View{ID: id, Class: class, Bounds: bounds, A11yEnabled: true}
}

// AddChild attaches child to v and returns the child for chaining. A
// child that already has a parent is left in its original tree and the
// add is ignored: view nodes belong to exactly one tree.
func (v *View) AddChild(child *View) *View {
	if child.parent != nil {
		return child
	}
	child.parent = v
	v.children = append(v.children, child)
	return child
}

// Parent returns the parent view (nil at the root). This is the
// getParent() call of the paper's Alipay bypass.
func (v *View) Parent() *View { return v.parent }

// Children returns the direct children in attach order.
func (v *View) Children() []*View {
	out := make([]*View, len(v.children))
	copy(out, v.children)
	return out
}

// FindByID searches the subtree rooted at v for a view with the id.
func (v *View) FindByID(id string) (*View, bool) {
	if v.ID == id {
		return v, true
	}
	for _, c := range v.children {
		if found, ok := c.FindByID(id); ok {
			return found, true
		}
	}
	return nil, false
}

// Text reports the widget's current text.
func (v *View) Text() string { return string(v.text) }

// SetText replaces the widget's text without emitting events (the
// malicious app's programmatic fill via the accessibility node, used to
// hide the attack by making the password appear in the real widget).
func (v *View) SetText(s string) { v.text = []rune(s) }

// Activity hosts a view tree, focus state, and accessibility dispatch for
// one app screen (e.g. a login screen).
type Activity struct {
	// App is the owning package.
	App binder.ProcessID
	// Root is the view tree root.
	Root *View

	clock     *simclock.Clock
	focused   *View
	listeners []Listener
}

// NewActivity builds an activity.
func NewActivity(clock *simclock.Clock, app binder.ProcessID, root *View) (*Activity, error) {
	if clock == nil {
		return nil, errors.New("uikit: nil clock")
	}
	if app == "" {
		return nil, errors.New("uikit: empty app")
	}
	if root == nil {
		return nil, errors.New("uikit: nil root view")
	}
	return &Activity{App: app, Root: root, clock: clock}, nil
}

// RegisterAccessibilityListener binds an accessibility service to the
// activity's event stream; nil listeners are ignored.
func (a *Activity) RegisterAccessibilityListener(fn Listener) {
	if fn != nil {
		a.listeners = append(a.listeners, fn)
	}
}

func (a *Activity) emit(t EventType, source *View) {
	if !source.A11yEnabled {
		return
	}
	ev := Event{Type: t, App: a.App, Source: source, At: a.clock.Now()}
	for _, fn := range a.listeners {
		fn(ev)
	}
}

// Focus moves input focus to v. Per the paper's observation, the widget
// losing focus sends a lone TYPE_WINDOW_CONTENT_CHANGED; the widget
// gaining focus sends TYPE_VIEW_FOCUSED.
func (a *Activity) Focus(v *View) error {
	if v == nil {
		return errors.New("uikit: focus nil view")
	}
	if _, ok := a.Root.FindByID(v.ID); !ok {
		return fmt.Errorf("uikit: view %q not in activity %q", v.ID, a.App)
	}
	if a.focused == v {
		return nil
	}
	if a.focused != nil {
		a.emit(EventWindowContentChanged, a.focused)
	}
	a.focused = v
	a.emit(EventViewFocused, v)
	return nil
}

// TypeRune appends a character to the focused widget, emitting the typing
// event pair (TYPE_VIEW_TEXT_CHANGED then TYPE_WINDOW_CONTENT_CHANGED) if
// the widget's accessibility is enabled.
func (a *Activity) TypeRune(r rune) error {
	if a.focused == nil {
		return errors.New("uikit: no focused view")
	}
	a.focused.text = append(a.focused.text, r)
	a.emit(EventViewTextChanged, a.focused)
	a.emit(EventWindowContentChanged, a.focused)
	return nil
}

// Backspace removes the focused widget's last character, emitting the same
// event pair as typing.
func (a *Activity) Backspace() error {
	if a.focused == nil {
		return errors.New("uikit: no focused view")
	}
	if len(a.focused.text) > 0 {
		a.focused.text = a.focused.text[:len(a.focused.text)-1]
	}
	a.emit(EventViewTextChanged, a.focused)
	a.emit(EventWindowContentChanged, a.focused)
	return nil
}

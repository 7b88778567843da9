package uikit

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/simclock"
)

func loginTree() (*View, *View, *View) {
	root := NewView("login_root", "LinearLayout", geom.RectWH(0, 0, 1080, 1920))
	user := root.AddChild(NewView("username_input", "EditText", geom.RectWH(40, 500, 1000, 120)))
	pass := root.AddChild(NewView("password_input", "EditText", geom.RectWH(40, 700, 1000, 120)))
	pass.Password = true
	return root, user, pass
}

func newActivity(t *testing.T) (*Activity, *View, *View) {
	t.Helper()
	clock := simclock.New()
	root, user, pass := loginTree()
	act, err := NewActivity(clock, "com.bank.app", root)
	if err != nil {
		t.Fatalf("NewActivity: %v", err)
	}
	return act, user, pass
}

func TestNewActivityValidation(t *testing.T) {
	clock := simclock.New()
	root, _, _ := loginTree()
	if _, err := NewActivity(nil, "a", root); err == nil {
		t.Fatal("nil clock accepted")
	}
	if _, err := NewActivity(clock, "", root); err == nil {
		t.Fatal("empty app accepted")
	}
	if _, err := NewActivity(clock, "a", nil); err == nil {
		t.Fatal("nil root accepted")
	}
}

func TestTreeNavigation(t *testing.T) {
	root, user, pass := loginTree()
	if user.Parent() != root || pass.Parent() != root {
		t.Fatal("Parent broken")
	}
	if root.Parent() != nil {
		t.Fatal("root has a parent")
	}
	kids := root.Children()
	if len(kids) != 2 || kids[0] != user || kids[1] != pass {
		t.Fatalf("Children = %v", kids)
	}
	got, ok := root.FindByID("password_input")
	if !ok || got != pass {
		t.Fatal("FindByID failed")
	}
	if _, ok := root.FindByID("nope"); ok {
		t.Fatal("FindByID found a ghost")
	}
}

func TestAddChildTwiceIgnored(t *testing.T) {
	root, user, _ := loginTree()
	other := NewView("other", "FrameLayout", geom.RectWH(0, 0, 1, 1))
	if got := other.AddChild(user); got != user {
		t.Fatal("AddChild did not return the child")
	}
	if user.Parent() != root {
		t.Fatal("re-parenting moved the child; want no-op")
	}
	if len(other.Children()) != 0 {
		t.Fatalf("adopting parent gained children: %v", other.Children())
	}
}

// TestAlipayBypassNavigation walks the paper's Alipay bypass: from the
// username widget's event source, getParent() then child enumeration
// reaches the password widget even though its own events are disabled.
func TestAlipayBypassNavigation(t *testing.T) {
	act, user, pass := newActivity(t)
	pass.A11yEnabled = false
	var captured *View
	act.RegisterAccessibilityListener(func(ev Event) {
		if ev.Source == user && captured == nil {
			parent := ev.Source.Parent()
			for _, c := range parent.Children() {
				if c.Password {
					captured = c
				}
			}
		}
	})
	if err := act.Focus(user); err != nil {
		t.Fatalf("Focus: %v", err)
	}
	if err := act.TypeRune('u'); err != nil {
		t.Fatalf("TypeRune: %v", err)
	}
	if captured != pass {
		t.Fatal("bypass did not reach the password widget")
	}
	// The obtained reference permits the programmatic fill.
	captured.SetText("stolen-pw")
	if pass.Text() != "stolen-pw" {
		t.Fatal("SetText via captured reference failed")
	}
}

func TestTypingEmitsEventPair(t *testing.T) {
	act, user, _ := newActivity(t)
	var types []EventType
	act.RegisterAccessibilityListener(func(ev Event) { types = append(types, ev.Type) })
	if err := act.Focus(user); err != nil {
		t.Fatalf("Focus: %v", err)
	}
	if err := act.TypeRune('a'); err != nil {
		t.Fatalf("TypeRune: %v", err)
	}
	want := []EventType{EventViewFocused, EventViewTextChanged, EventWindowContentChanged}
	if len(types) != len(want) {
		t.Fatalf("events = %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("events = %v, want %v", types, want)
		}
	}
	if user.Text() != "a" {
		t.Fatalf("text = %q", user.Text())
	}
}

// TestFocusSwitchEmitsLoneContentChanged reproduces the paper's timing
// signal: when the user finishes typing and switches focus, the widget
// sends only TYPE_WINDOW_CONTENT_CHANGED.
func TestFocusSwitchEmitsLoneContentChanged(t *testing.T) {
	act, user, pass := newActivity(t)
	pass.A11yEnabled = true
	if err := act.Focus(user); err != nil {
		t.Fatalf("Focus: %v", err)
	}
	var fromUser []EventType
	act.RegisterAccessibilityListener(func(ev Event) {
		if ev.Source == user {
			fromUser = append(fromUser, ev.Type)
		}
	})
	if err := act.Focus(pass); err != nil {
		t.Fatalf("Focus: %v", err)
	}
	if len(fromUser) != 1 || fromUser[0] != EventWindowContentChanged {
		t.Fatalf("events from username on focus switch = %v, want lone CONTENT_CHANGED", fromUser)
	}
	if act.focused != pass {
		t.Fatal("focus not moved")
	}
}

func TestA11yDisabledSuppressesEvents(t *testing.T) {
	act, _, pass := newActivity(t)
	pass.A11yEnabled = false
	count := 0
	act.RegisterAccessibilityListener(func(Event) { count++ })
	if err := act.Focus(pass); err != nil {
		t.Fatalf("Focus: %v", err)
	}
	if err := act.TypeRune('s'); err != nil {
		t.Fatalf("TypeRune: %v", err)
	}
	if count != 0 {
		t.Fatalf("a11y-disabled widget emitted %d events", count)
	}
	if pass.Text() != "s" {
		t.Fatal("typing into a11y-disabled widget lost text")
	}
}

func TestFocusValidation(t *testing.T) {
	act, _, _ := newActivity(t)
	if err := act.Focus(nil); err == nil {
		t.Fatal("Focus(nil) accepted")
	}
	stranger := NewView("stranger", "EditText", geom.RectWH(0, 0, 1, 1))
	if err := act.Focus(stranger); err == nil {
		t.Fatal("Focus on foreign view accepted")
	}
}

func TestTypeWithoutFocusFails(t *testing.T) {
	act, _, _ := newActivity(t)
	if err := act.TypeRune('x'); err == nil {
		t.Fatal("TypeRune without focus accepted")
	}
	if err := act.Backspace(); err == nil {
		t.Fatal("Backspace without focus accepted")
	}
}

func TestBackspace(t *testing.T) {
	act, user, _ := newActivity(t)
	if err := act.Focus(user); err != nil {
		t.Fatalf("Focus: %v", err)
	}
	for _, r := range "ab" {
		if err := act.TypeRune(r); err != nil {
			t.Fatalf("TypeRune: %v", err)
		}
	}
	if err := act.Backspace(); err != nil {
		t.Fatalf("Backspace: %v", err)
	}
	if user.Text() != "a" {
		t.Fatalf("text = %q, want a", user.Text())
	}
	// Backspace on empty text is harmless.
	if err := act.Backspace(); err != nil {
		t.Fatalf("Backspace: %v", err)
	}
	if err := act.Backspace(); err != nil {
		t.Fatalf("Backspace: %v", err)
	}
	if user.Text() != "" {
		t.Fatalf("text = %q, want empty", user.Text())
	}
}

func TestRefocusSameViewNoEvents(t *testing.T) {
	act, user, _ := newActivity(t)
	if err := act.Focus(user); err != nil {
		t.Fatalf("Focus: %v", err)
	}
	count := 0
	act.RegisterAccessibilityListener(func(Event) { count++ })
	if err := act.Focus(user); err != nil {
		t.Fatalf("Focus: %v", err)
	}
	if count != 0 {
		t.Fatalf("refocusing same view emitted %d events", count)
	}
}

func TestEventTypeString(t *testing.T) {
	tests := []struct {
		e    EventType
		want string
	}{
		{EventViewTextChanged, "TYPE_VIEW_TEXT_CHANGED"},
		{EventWindowContentChanged, "TYPE_WINDOW_CONTENT_CHANGED"},
		{EventViewFocused, "TYPE_VIEW_FOCUSED"},
		{EventType(42), "EventType(42)"},
	}
	for _, tt := range tests {
		if got := tt.e.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

package ime

import (
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/keyboard"
	"repro/internal/sysserver"
	"repro/internal/uikit"
)

func setup(t *testing.T) (*sysserver.Stack, *keyboard.Keyboard, *uikit.Activity, *uikit.View) {
	t.Helper()
	st, err := sysserver.Assemble(device.Seed().Default(), 1)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	screen := geom.RectWH(0, 0, float64(st.Profile.ScreenW), float64(st.Profile.ScreenH))
	kb, err := keyboard.New(geom.RectWH(0, 0.625*screen.H(), screen.W(), 0.375*screen.H()))
	if err != nil {
		t.Fatalf("keyboard.New: %v", err)
	}
	root := uikit.NewView("root", "LinearLayout", screen)
	field := root.AddChild(uikit.NewView("field", "EditText", geom.RectWH(40, 300, 900, 120)))
	act, err := uikit.NewActivity(st.Clock, "com.app", root)
	if err != nil {
		t.Fatalf("NewActivity: %v", err)
	}
	if err := act.Focus(field); err != nil {
		t.Fatalf("Focus: %v", err)
	}
	return st, kb, act, field
}

func TestShowValidation(t *testing.T) {
	st, kb, act, _ := setup(t)
	if _, err := Show(nil, kb, act); err == nil {
		t.Fatal("nil stack accepted")
	}
	if _, err := Show(st, nil, act); err == nil {
		t.Fatal("nil keyboard accepted")
	}
	if _, err := Show(st, kb, nil); err == nil {
		t.Fatal("nil activity accepted")
	}
}

func TestShowAttachesWindow(t *testing.T) {
	st, kb, act, _ := setup(t)
	m, err := Show(st, kb, act)
	if err != nil {
		t.Fatalf("Show: %v", err)
	}
	if err := st.Clock.RunFor(time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if got := st.WM.WindowCount(); got != 1 {
		t.Fatalf("windows = %d, want 1", got)
	}
	if m.Board() != keyboard.BoardLower {
		t.Fatalf("initial board = %v", m.Board())
	}
	if err := m.Hide(); err != nil {
		t.Fatalf("Hide: %v", err)
	}
	if err := st.Clock.RunFor(time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if got := st.WM.WindowCount(); got != 0 {
		t.Fatalf("windows after hide = %d, want 0", got)
	}
	// Hide twice is a no-op.
	if err := m.Hide(); err != nil {
		t.Fatalf("second Hide: %v", err)
	}
}

// tap performs a full gesture at p once the IME window is attached.
func tap(t *testing.T, st *sysserver.Stack, p geom.Point) {
	t.Helper()
	gid, _, ok := st.WM.BeginGesture(p)
	if !ok {
		t.Fatalf("tap at %v hit nothing", p)
	}
	if _, err := st.WM.EndGesture(gid, p); err != nil {
		t.Fatalf("EndGesture: %v", err)
	}
}

func TestTypingCommitsOnUp(t *testing.T) {
	st, kb, act, field := setup(t)
	_, err := Show(st, kb, act)
	if err != nil {
		t.Fatalf("Show: %v", err)
	}
	if err := st.Clock.RunFor(time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	h, _ := kb.FindKey(keyboard.BoardLower, "h")
	i, _ := kb.FindKey(keyboard.BoardLower, "i")
	// DOWN alone must not commit.
	gid, _, ok := st.WM.BeginGesture(h.Center())
	if !ok {
		t.Fatal("tap missed IME")
	}
	if field.Text() != "" {
		t.Fatal("committed on DOWN")
	}
	if _, err := st.WM.EndGesture(gid, h.Center()); err != nil {
		t.Fatalf("EndGesture: %v", err)
	}
	tap(t, st, i.Center())
	if got := field.Text(); got != "hi" {
		t.Fatalf("text = %q, want hi", got)
	}
}

func TestBoardSwitching(t *testing.T) {
	st, kb, act, field := setup(t)
	m, err := Show(st, kb, act)
	if err != nil {
		t.Fatalf("Show: %v", err)
	}
	if err := st.Clock.RunFor(time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	shift, _ := kb.FindKey(keyboard.BoardLower, "⇧")
	tap(t, st, shift.Center())
	if m.Board() != keyboard.BoardUpper {
		t.Fatalf("board after shift = %v", m.Board())
	}
	upperA, _ := kb.FindKey(keyboard.BoardUpper, "A")
	tap(t, st, upperA.Center())
	if field.Text() != "A" {
		t.Fatalf("text = %q, want A", field.Text())
	}
	// One-shot shift reverted.
	if m.Board() != keyboard.BoardLower {
		t.Fatalf("board after upper char = %v, want lower", m.Board())
	}
	sym, _ := kb.FindKey(keyboard.BoardLower, "?123")
	tap(t, st, sym.Center())
	if m.Board() != keyboard.BoardSymbols {
		t.Fatalf("board after ?123 = %v", m.Board())
	}
	seven, _ := kb.FindKey(keyboard.BoardSymbols, "7")
	tap(t, st, seven.Center())
	if field.Text() != "A7" {
		t.Fatalf("text = %q, want A7", field.Text())
	}
}

func TestBackspaceAndEnter(t *testing.T) {
	st, kb, act, field := setup(t)
	_, err := Show(st, kb, act)
	if err != nil {
		t.Fatalf("Show: %v", err)
	}
	if err := st.Clock.RunFor(time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	a, _ := kb.FindKey(keyboard.BoardLower, "a")
	bs, _ := kb.FindKey(keyboard.BoardLower, "⌫")
	enter, _ := kb.FindKey(keyboard.BoardLower, "⏎")
	tap(t, st, a.Center())
	tap(t, st, a.Center())
	tap(t, st, bs.Center())
	tap(t, st, enter.Center())
	if field.Text() != "a" {
		t.Fatalf("text = %q, want a", field.Text())
	}
}

// TestTypingFullPassword drives the planned keystrokes for a multi-board
// password through real gestures and checks the widget receives it.
func TestTypingFullPassword(t *testing.T) {
	st, kb, act, field := setup(t)
	if _, err := Show(st, kb, act); err != nil {
		t.Fatalf("Show: %v", err)
	}
	if err := st.Clock.RunFor(time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	const password = "aB3$x"
	presses, err := kb.PlanPresses(password)
	if err != nil {
		t.Fatalf("PlanPresses: %v", err)
	}
	for _, pr := range presses {
		tap(t, st, pr.Key.Center())
	}
	if got := field.Text(); got != password {
		t.Fatalf("widget = %q, want %q", got, password)
	}
}

// TestOffKeyTouchSnapsToNearest: a touch between keys still commits the
// nearest key, like a real soft keyboard's touch model.
func TestOffKeyTouchSnapsToNearest(t *testing.T) {
	st, kb, act, field := setup(t)
	if _, err := Show(st, kb, act); err != nil {
		t.Fatalf("Show: %v", err)
	}
	if err := st.Clock.RunFor(time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	g, _ := kb.FindKey(keyboard.BoardLower, "g")
	// Just outside g's rect but nearest to it (1 px below its bottom
	// edge, inside the keyboard area).
	p := geom.Pt(g.Center().X, g.Bounds.Max.Y+1)
	tap(t, st, p)
	if got := field.Text(); got != "g" && got != "v" && got != "b" {
		t.Fatalf("text = %q, want the key nearest the touch", got)
	}
}

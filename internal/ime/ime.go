// Package ime simulates the real software keyboard (input method editor)
// the victim types on. The IME is a touchable TypeInputMethod window; it
// commits a key on the gesture's UP event, tracks its own sub-keyboard
// state, and feeds characters into the focused widget of the foreground
// activity.
//
// In the password-stealing attack the IME sits *under* the attacker's
// transparent overlays: touches the attack captures never reach it, and
// touches that slip through a mistouch gap land here — producing exactly
// the divergence between what the user typed, what the victim app
// received, and what the attacker inferred that the paper's Table III
// error taxonomy describes.
package ime

import (
	"errors"
	"fmt"

	"repro/internal/binder"
	"repro/internal/keyboard"
	"repro/internal/sysserver"
	"repro/internal/uikit"
	"repro/internal/wm"
)

// Process is the IME's package/process name.
const Process binder.ProcessID = "com.android.inputmethod.latin"

// IME is a shown software keyboard bound to an activity.
type IME struct {
	stack *sysserver.Stack
	kb    *keyboard.Keyboard
	act   *uikit.Activity

	board keyboard.Board
	shown bool
}

// Show attaches the keyboard window for the given activity. The keyboard
// geometry kb defines both the visuals and the hit targets.
func Show(stack *sysserver.Stack, kb *keyboard.Keyboard, act *uikit.Activity) (*IME, error) {
	if stack == nil {
		return nil, errors.New("ime: nil stack")
	}
	if kb == nil {
		return nil, errors.New("ime: nil keyboard")
	}
	if act == nil {
		return nil, errors.New("ime: nil activity")
	}
	m := &IME{stack: stack, kb: kb, act: act, board: keyboard.BoardLower}
	if _, err := stack.Bus.Call(Process, binder.SystemServer, sysserver.MethodAddView, sysserver.AddViewRequest{
		Handle:  1,
		Type:    wm.TypeInputMethod,
		Bounds:  kb.Bounds(),
		OnTouch: m.onTouch,
	}); err != nil {
		return nil, fmt.Errorf("ime: addView: %w", err)
	}
	m.shown = true
	return m, nil
}

// Hide detaches the keyboard window.
func (m *IME) Hide() error {
	if !m.shown {
		return nil
	}
	m.shown = false
	if _, err := m.stack.Bus.Call(Process, binder.SystemServer, sysserver.MethodRemoveView, sysserver.RemoveViewRequest{Handle: 1}); err != nil {
		return fmt.Errorf("ime: removeView: %w", err)
	}
	return nil
}

// Board reports the IME's current sub-keyboard.
func (m *IME) Board() keyboard.Board { return m.board }

// onTouch commits keys on UP: a canceled gesture (the finger's window was
// removed mid-press — impossible for the IME itself, but part of the
// handler contract) commits nothing.
func (m *IME) onTouch(ev wm.TouchEvent) {
	if ev.Action != wm.ActionUp {
		return
	}
	key, ok := m.kb.KeyAt(m.board, ev.Pos)
	if !ok {
		key = m.kb.NearestKey(m.board, ev.Pos)
	}
	m.commit(key)
}

func (m *IME) commit(key keyboard.Key) {
	// A key the activity refuses is dropped, as Android does: typing
	// without focus can happen if the activity lost focus mid-session.
	switch key.Kind {
	case keyboard.KindChar, keyboard.KindSpace:
		_ = m.act.TypeRune(key.Out)
	case keyboard.KindBackspace:
		_ = m.act.Backspace()
	}
	m.board = keyboard.Next(m.board, key)
}

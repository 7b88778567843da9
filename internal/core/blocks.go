package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/binder"
	"repro/internal/geom"
	"repro/internal/sysserver"
)

// This file implements the other attacks the paper names as applications
// of the two draw-and-destroy building blocks (Section I: "password
// stealing, content hiding and payment hijack"; Section II-A: the
// clickjacking variant).

// ClickjackConfig configures a clickjacking attack: a *non*-UI-intercepting
// overlay (FLAG_NOT_TOUCHABLE) shows misleading content while the user's
// touches pass through to the victim app beneath — e.g. luring the user to
// press a button that actually grants a permission. The draw-and-destroy
// loop keeps the overlay's alert suppressed.
type ClickjackConfig struct {
	// App is the malicious package.
	App binder.ProcessID
	// D is the attacking window.
	D time.Duration
	// Bounds is the region the lure covers.
	Bounds geom.Rect
	// Lure describes the misleading content rendered on the overlay
	// (e.g. "Tap to claim your prize").
	Lure string
}

// ClickjackAttack is the draw-and-destroy clickjacking attack.
type ClickjackAttack struct {
	overlay *OverlayAttack
	lure    string
}

// NewClickjackAttack validates the configuration.
func NewClickjackAttack(stack *sysserver.Stack, cfg ClickjackConfig) (*ClickjackAttack, error) {
	if cfg.Lure == "" {
		return nil, errors.New("core: empty clickjack lure")
	}
	overlay, err := NewOverlayAttack(stack, OverlayAttackConfig{
		App:          cfg.App,
		D:            cfg.D,
		Bounds:       cfg.Bounds,
		NotTouchable: true,
	})
	if err != nil {
		return nil, fmt.Errorf("core: clickjack overlay: %w", err)
	}
	return &ClickjackAttack{overlay: overlay, lure: cfg.Lure}, nil
}

// Lure reports the misleading content shown to the user.
func (a *ClickjackAttack) Lure() string { return a.lure }

// Start launches the draw-and-destroy loop under the lure.
func (a *ClickjackAttack) Start() error { return a.overlay.Start() }

// Stop tears the lure down.
func (a *ClickjackAttack) Stop() { a.overlay.Stop() }

// ContentHideConfig configures a content-hiding attack: a customized toast
// kept over a region of the victim's UI by the draw-and-destroy toast
// attack, replacing what the user sees there — e.g. covering "Pay ¥1000"
// with "Pay ¥1" in a payment hijack.
type ContentHideConfig struct {
	// App is the malicious package. No permission needed (toast vector).
	App binder.ProcessID
	// Region is the victim UI region to cover.
	Region geom.Rect
	// FakeContent is what the toast displays instead.
	FakeContent string
	// Duration is the per-toast duration; defaults to LENGTH_LONG.
	Duration time.Duration
}

// ContentHideAttack is the draw-and-destroy content-hiding attack.
type ContentHideAttack struct {
	toast *ToastAttack
}

// NewContentHideAttack validates the configuration.
func NewContentHideAttack(stack *sysserver.Stack, cfg ContentHideConfig) (*ContentHideAttack, error) {
	if cfg.FakeContent == "" {
		return nil, errors.New("core: empty fake content")
	}
	toast, err := NewToastAttack(stack, ToastAttackConfig{
		App:      cfg.App,
		Bounds:   cfg.Region,
		Duration: cfg.Duration,
		Content:  func() string { return cfg.FakeContent },
	})
	if err != nil {
		return nil, fmt.Errorf("core: content-hide toast: %w", err)
	}
	return &ContentHideAttack{toast: toast}, nil
}

// Start launches the covering toast chain.
func (a *ContentHideAttack) Start() error { return a.toast.Start() }

// Stop retires the covering toast.
func (a *ContentHideAttack) Stop() { a.toast.Stop() }

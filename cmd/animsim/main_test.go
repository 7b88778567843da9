package main

import (
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/sysserver"
)

func newStack(t *testing.T) *sysserver.Stack {
	t.Helper()
	st, err := sysserver.Assemble(device.Seed().Default(), 1)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	st.WM.GrantOverlayPermission(attackerApp)
	return st
}

func TestRunOverlayScenario(t *testing.T) {
	st := newStack(t)
	report, err := runOverlay(st, 290*time.Millisecond, 2*time.Second)
	if err != nil {
		t.Fatalf("runOverlay: %v", err)
	}
	if err := st.Clock.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	report() // must not panic
	if got := st.UI.WorstOutcome().String(); got != "Λ1" {
		t.Fatalf("outcome = %s", got)
	}
}

func TestRunToastScenario(t *testing.T) {
	st := newStack(t)
	report, err := runToast(st, 5*time.Second)
	if err != nil {
		t.Fatalf("runToast: %v", err)
	}
	if err := st.Clock.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	report()
	if got := st.Server.Stats().ToastsShown; got == 0 {
		t.Fatal("no toasts shown")
	}
}

func TestRunStealScenario(t *testing.T) {
	st := newStack(t)
	report, err := runSteal(st, 290*time.Millisecond, "abc123", 5)
	if err != nil {
		t.Fatalf("runSteal: %v", err)
	}
	if err := st.Clock.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	report()
}

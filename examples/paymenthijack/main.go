// Paymenthijack: the paper's third named application of the
// draw-and-destroy building blocks. A payment app shows "Pay ¥1000 to
// shop-B"; the malicious app covers the amount line with a content-hiding
// toast reading "Pay ¥1 to shop-A" while a clickjacking (non-touchable)
// overlay dresses up the confirm button. The user believes they confirm a
// ¥1 payment; their touch passes through to the real ¥1000 confirm button.
//
//	go run ./examples/paymenthijack
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/binder"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/sysserver"
	"repro/internal/wm"
)

const (
	evil   binder.ProcessID = "com.evil.app"
	payApp binder.ProcessID = "com.pay.app"
)

func main() {
	phone := device.Seed().Default()
	stack, err := sysserver.Assemble(phone, 11)
	if err != nil {
		log.Fatalf("assemble: %v", err)
	}
	stack.WM.GrantOverlayPermission(evil)
	screen := geom.RectWH(0, 0, float64(phone.ScreenW), float64(phone.ScreenH))

	// The victim payment screen: an amount line and a confirm button.
	amountLine := geom.RectWH(0.1*screen.W(), 0.35*screen.H(), 0.8*screen.W(), 0.08*screen.H())
	confirmBtn := geom.RectWH(0.25*screen.W(), 0.6*screen.H(), 0.5*screen.W(), 0.08*screen.H())
	confirmed := false
	if _, err := stack.WM.AddWindow(wm.Spec{
		Owner: payApp, Type: wm.TypeActivity, Bounds: screen,
		OnTouch: func(ev wm.TouchEvent) {
			if ev.Action == wm.ActionUp && confirmBtn.Contains(ev.Pos) {
				confirmed = true
			}
		},
	}); err != nil {
		log.Fatalf("payment app: %v", err)
	}

	// Attack block 1: hide the real amount under a fake one (toast — no
	// permission needed, no alert possible).
	hide, err := core.NewContentHideAttack(stack, core.ContentHideConfig{
		App:         evil,
		Region:      amountLine,
		FakeContent: "Pay ¥1 to shop-A",
	})
	if err != nil {
		log.Fatalf("content hide: %v", err)
	}
	// Attack block 2: a non-touchable lure over the confirm button (the
	// alert it would trigger is suppressed by the draw-and-destroy
	// loop).
	lure, err := core.NewClickjackAttack(stack, core.ClickjackConfig{
		App:    evil,
		D:      time.Duration(float64(phone.PaperUpperBoundD) * 0.9),
		Bounds: confirmBtn,
		Lure:   "Confirm ¥1",
	})
	if err != nil {
		log.Fatalf("clickjack: %v", err)
	}
	if err := hide.Start(); err != nil {
		log.Fatalf("start hide: %v", err)
	}
	if err := lure.Start(); err != nil {
		log.Fatalf("start lure: %v", err)
	}

	// Three seconds in, the user reads "Pay ¥1" and taps confirm.
	stack.Clock.MustAfter(3*time.Second, "user/confirm", func() {
		p := confirmBtn.Center()
		gid, target, ok := stack.WM.BeginGesture(p)
		if !ok {
			log.Fatal("tap hit nothing")
		}
		fmt.Printf("user taps %q — the touch lands on the %s window of %s\n",
			lure.Lure(), target.Type, target.Owner)
		stack.Clock.MustAfter(60*time.Millisecond, "user/up", func() {
			if _, err := stack.WM.EndGesture(gid, p); err != nil {
				log.Fatalf("end gesture: %v", err)
			}
		})
	})
	stack.Clock.MustAfter(6*time.Second, "attack/stop", func() {
		hide.Stop()
		lure.Stop()
	})
	if err := stack.Clock.Run(); err != nil {
		log.Fatalf("run: %v", err)
	}

	fmt.Println()
	fmt.Printf("amount line shown to user: %q (real screen says \"Pay ¥1000 to shop-B\")\n", "Pay ¥1 to shop-A")
	fmt.Printf("payment confirmed:         %v (the real ¥1000 payment went through)\n", confirmed)
	fmt.Printf("overlay alert outcome:     %s across %d suppressed episodes\n",
		stack.UI.WorstOutcome(), len(stack.UI.Episodes()))
	fmt.Println("                           (the content-hiding toast itself never triggers any alert)")
}

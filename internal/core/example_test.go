package core_test

import (
	"fmt"
	"log"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/ime"
	"repro/internal/keyboard"
	"repro/internal/sysserver"
)

// ExampleOverlayAttack runs the Section III draw-and-destroy overlay
// attack on a simulated Pixel 2 and shows that the overlay alert never
// becomes visible.
func ExampleOverlayAttack() {
	phone := device.Seed().Default()
	stack, err := sysserver.Assemble(phone, 1)
	if err != nil {
		log.Fatal(err)
	}
	stack.WM.GrantOverlayPermission("com.evil.app")
	attack, err := core.NewOverlayAttack(stack, core.OverlayAttackConfig{
		App:    "com.evil.app",
		D:      core.SelectAttackWindow(phone),
		Bounds: geom.RectWH(0, 0, float64(phone.ScreenW), float64(phone.ScreenH)),
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := attack.Start(); err != nil {
		log.Fatal(err)
	}
	stack.Clock.MustAfter(5*time.Second, "stop", attack.Stop)
	if err := stack.Clock.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("worst alert outcome:", stack.UI.WorstOutcome())
	// Output: worst alert outcome: Λ1
}

// ExampleToastAttack keeps a customized toast on screen far beyond the
// 3.5 s maximum by riding the fade-out animation (Section IV).
func ExampleToastAttack() {
	stack, err := sysserver.Assemble(device.Seed().Default(), 1)
	if err != nil {
		log.Fatal(err)
	}
	attack, err := core.NewToastAttack(stack, core.ToastAttackConfig{
		App:     "com.evil.app",
		Bounds:  geom.RectWH(0, 1200, 1080, 720),
		Content: func() string { return "fake-keyboard" },
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := attack.Start(); err != nil {
		log.Fatal(err)
	}
	// Sample the toast's presence at 10 s — far past any legal duration.
	var alphaAt10s float64
	stack.Clock.MustAfter(10*time.Second, "probe", func() {
		alphaAt10s = stack.WM.TopToastAlpha("com.evil.app")
	})
	stack.Clock.MustAfter(12*time.Second, "stop", attack.Stop)
	if err := stack.Clock.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("toast still opaque after 10s: %v\n", alphaAt10s > 0.9)
	// Output: toast still opaque after 10s: true
}

// ExamplePasswordStealer runs the combined Section V attack against the
// Bank of America login screen with machine-precise touches.
func ExamplePasswordStealer() {
	phone, _ := device.Seed().ByModel("mi8")
	stack, err := sysserver.Assemble(phone, 29)
	if err != nil {
		log.Fatal(err)
	}
	stack.WM.GrantOverlayPermission("com.evil.app")
	bofa, _ := apps.ByName("Bank of America")
	session, err := bofa.NewLoginSession(stack.Clock, geom.RectWH(0, 0, float64(phone.ScreenW), float64(phone.ScreenH)))
	if err != nil {
		log.Fatal(err)
	}
	kb, err := keyboard.New(session.KeyboardBounds)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := ime.Show(stack, kb, session.Activity); err != nil {
		log.Fatal(err)
	}
	stealer, err := core.NewPasswordStealer(stack, core.PasswordStealerConfig{
		App: "com.evil.app", Victim: session, Keyboard: kb,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := stealer.Arm(); err != nil {
		log.Fatal(err)
	}
	stack.Clock.MustAfter(time.Second, "focus", func() {
		if err := session.Activity.Focus(session.Password); err != nil {
			panic(err)
		}
	})
	presses, err := kb.PlanPresses("hunter2")
	if err != nil {
		log.Fatal(err)
	}
	for i, pr := range presses {
		pr := pr
		down := 2*time.Second + time.Duration(i)*305*time.Millisecond
		stack.Clock.MustAfter(down, "down", func() {
			gid, _, ok := stack.WM.BeginGesture(pr.Key.Center())
			if !ok {
				return
			}
			stack.Clock.MustAfter(50*time.Millisecond, "up", func() {
				if _, err := stack.WM.EndGesture(gid, pr.Key.Center()); err != nil {
					panic(err)
				}
			})
		})
	}
	stack.Clock.MustAfter(2*time.Second+time.Duration(len(presses))*305*time.Millisecond+time.Second, "stop", stealer.Stop)
	if err := stack.Clock.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("stolen:", stealer.StolenPassword())
	fmt.Println("alert:", stack.UI.WorstOutcome())
	// Output:
	// stolen: hunter2
	// alert: Λ1
}

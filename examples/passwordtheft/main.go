// Passwordtheft: the full Section V attack against the Bank of America
// login screen — fake-keyboard toasts (draw-and-destroy toast attack) +
// transparent UI-intercepting overlays (draw-and-destroy overlay attack) +
// Euclidean nearest-key inference, triggered by accessibility events.
//
//	go run ./examples/passwordtheft
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/apps"
	"repro/internal/binder"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/ime"
	"repro/internal/input"
	"repro/internal/keyboard"
	"repro/internal/simrand"
	"repro/internal/sysserver"
)

const evil binder.ProcessID = "com.evil.app"

func main() {
	phone, ok := device.Seed().ByModel("mi8") // Xiaomi Mi 8, Android 9
	if !ok {
		log.Fatal("device profile missing")
	}
	stack, err := sysserver.Assemble(phone, 7)
	if err != nil {
		log.Fatalf("assemble: %v", err)
	}
	stack.WM.GrantOverlayPermission(evil)
	screen := geom.RectWH(0, 0, float64(phone.ScreenW), float64(phone.ScreenH))

	// The victim opens the Bank of America login screen; the real
	// software keyboard appears over the bottom of the screen.
	bofa, ok := apps.ByName("Bank of America")
	if !ok {
		log.Fatal("BofA missing from Table IV catalog")
	}
	session, err := bofa.NewLoginSession(stack.Clock, screen)
	if err != nil {
		log.Fatalf("login session: %v", err)
	}
	kb, err := keyboard.New(session.KeyboardBounds)
	if err != nil {
		log.Fatalf("keyboard: %v", err)
	}
	if _, err := ime.Show(stack, kb, session.Activity); err != nil {
		log.Fatalf("ime: %v", err)
	}

	// The malicious app arms: its accessibility service waits for the
	// password widget to take focus.
	stealer, err := core.NewPasswordStealer(stack, core.PasswordStealerConfig{
		App:      evil,
		Victim:   session,
		Keyboard: kb,
		D:        time.Duration(float64(phone.PaperUpperBoundD) * 0.9),
	})
	if err != nil {
		log.Fatalf("stealer: %v", err)
	}
	if err := stealer.Arm(); err != nil {
		log.Fatalf("arm: %v", err)
	}

	// The user focuses the password field and types the demo password
	// from the paper's video — lower case, upper case, digits and
	// symbols across all three sub-keyboards.
	const password = "tk&%48GH"
	stack.Clock.MustAfter(500*time.Millisecond, "user/focus", func() {
		if err := session.Activity.Focus(session.Password); err != nil {
			panic(err)
		}
	})
	typist, err := input.NewTypist(simrand.New(99))
	if err != nil {
		log.Fatalf("typist: %v", err)
	}
	keystrokes, err := typist.PlanSession(kb, password, time.Second)
	if err != nil {
		log.Fatalf("plan: %v", err)
	}
	for _, k := range keystrokes {
		k := k
		stack.Clock.MustAfter(k.DownAt, "user/down", func() {
			gid, target, ok := stack.WM.BeginGesture(k.Point)
			if ok {
				fmt.Printf("%8v  tap %-6q lands on %s window of %s\n",
					stack.Clock.Now().Round(time.Millisecond), k.Press.Key.Label, target.Type, target.Owner)
			}
			stack.Clock.MustAfter(k.UpAt-k.DownAt, "user/up", func() {
				if ok {
					if _, err := stack.WM.EndGesture(gid, k.Point); err != nil {
						panic(err)
					}
				}
			})
		})
	}
	end := keystrokes[len(keystrokes)-1].UpAt + time.Second
	stack.Clock.MustAfter(end, "attack/stop", stealer.Stop)
	if err := stack.Clock.Run(); err != nil {
		log.Fatalf("run: %v", err)
	}

	fmt.Println()
	fmt.Printf("victim typed:     %q\n", password)
	fmt.Printf("attacker derived: %q\n", stealer.StolenPassword())
	fmt.Printf("victim widget:    %q (filled via the captured accessibility node)\n", session.Password.Text())
	fmt.Printf("alert outcome:    %s (Λ1 = completely stealthy)\n", stack.UI.WorstOutcome())
}

// Quickstart: assemble a simulated Android device, run the
// draw-and-destroy overlay attack (Section III), and observe that the
// Android 8+ overlay alert never becomes visible.
//
//	go run ./examples/quickstart
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
)

func main() {
	// 1. Pick a phone from the paper's Table I/II and assemble the
	//    simulated stack: Binder bus, Window Manager, System Server and
	//    System UI, all on one deterministic event clock.
	phone := device.Seed().Default() // Google Pixel 2, Android 11
	stack, err := sysserver.Assemble(phone, 1)
	if err != nil {
		log.Fatalf("assemble: %v", err)
	}
	fmt.Printf("phone: %s (Table II upper bound of D: %v)\n", phone.Name(), phone.PaperUpperBoundD)

	// 2. The victim installed the malicious overlay app and granted
	//    SYSTEM_ALERT_WINDOW (the threat model of Section III-A).
	const evil binder.ProcessID = "com.evil.app"
	stack.WM.GrantOverlayPermission(evil)

	// 3. Launch the draw-and-destroy overlay attack with the attacking
	//    window D chosen just under the device's bound.
	d := time.Duration(float64(phone.PaperUpperBoundD) * 0.9)
	attack, err := core.NewOverlayAttack(stack, core.OverlayAttackConfig{
		App:    evil,
		D:      d,
		Bounds: geom.RectWH(0, 0, float64(phone.ScreenW), float64(phone.ScreenH)),
	})
	if err != nil {
		log.Fatalf("build attack: %v", err)
	}
	if err := attack.Start(); err != nil {
		log.Fatalf("start attack: %v", err)
	}

	// 4. Let the attack run for 10 virtual seconds, then stop it.
	stack.Clock.MustAfter(10*time.Second, "quickstart/stop", attack.Stop)
	if err := stack.Clock.Run(); err != nil {
		log.Fatalf("run: %v", err)
	}

	// 5. The System UI classifies how much of the alert a user could
	//    have seen; Λ1 means nothing, ever — the alert was suppressed by
	//    exploiting its own slow-in animation.
	fmt.Printf("overlay swaps:  %d over 10 s (D = %v)\n", attack.Cycles(), d)
	fmt.Printf("alert episodes: %d, worst outcome: %s\n",
		len(stack.UI.Episodes()), stack.UI.WorstOutcome())
	if got := stack.UI.WorstOutcome().String(); got == "Λ1" {
		fmt.Println("result: the notification defense never showed anything — attack succeeded")
	} else {
		fmt.Println("result: the alert became visible — attack failed")
	}
}

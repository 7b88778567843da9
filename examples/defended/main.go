// Defended: the same draw-and-destroy overlay attack run three times —
// against a stock device, against a device with the Section VII-B
// enhanced-notification patch (t = 690 ms), and against a device with the
// Section VII-A IPC detector armed to revoke SYSTEM_ALERT_WINDOW on
// detection.
//
//	go run ./examples/defended
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/binder"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/sysserver"
)

const evil binder.ProcessID = "com.evil.app"

type verdict struct {
	name     string
	outcome  string
	detected string
	note     string
}

func main() {
	phone := device.Seed().Default() // Pixel 2, the paper's defense testbed
	d := time.Duration(float64(phone.PaperUpperBoundD) * 0.9)
	var results []verdict

	// Run 1: stock device.
	{
		stack := mustAssemble(phone, 1)
		runAttack(stack, d)
		results = append(results, verdict{
			name:     "stock Android",
			outcome:  stack.UI.WorstOutcome().String(),
			detected: "n/a",
			note:     "attack suppresses the alert",
		})
	}

	// Run 2: enhanced-notification defense (Section VII-B).
	{
		stack := mustAssemble(phone, 2)
		stack.Server.EnableEnhancedNotificationDefense(690 * time.Millisecond)
		runAttack(stack, d)
		results = append(results, verdict{
			name:     "enhanced notification (t=690ms)",
			outcome:  stack.UI.WorstOutcome().String(),
			detected: "n/a",
			note:     "alert removal is delayed past the animation, so it always completes",
		})
	}

	// Run 3: IPC-based detector (Section VII-A), terminate on detection.
	{
		stack := mustAssemble(phone, 3)
		det, err := defense.NewIPCDetector()
		if err != nil {
			log.Fatalf("detector: %v", err)
		}
		if err := det.Install(stack, true); err != nil {
			log.Fatalf("install: %v", err)
		}
		runAttack(stack, d)
		detected := "no"
		if ds := det.Detections(); len(ds) > 0 {
			detected = fmt.Sprintf("yes, at %v (%d swaps, mean gap %v)",
				ds[0].At.Round(time.Millisecond), ds[0].Swaps, ds[0].MeanSwapGap.Round(100*time.Microsecond))
		}
		results = append(results, verdict{
			name:     "IPC (Binder) detector",
			outcome:  stack.UI.WorstOutcome().String(),
			detected: detected,
			note:     "SYSTEM_ALERT_WINDOW revoked; overlays removed",
		})
	}

	fmt.Printf("draw-and-destroy overlay attack on %s, D = %v, 15 s\n\n", phone.Name(), d)
	for _, r := range results {
		fmt.Printf("%-34s alert outcome: %-3s  detected: %s\n", r.name, r.outcome, r.detected)
		fmt.Printf("%-34s %s\n\n", "", r.note)
	}
}

func mustAssemble(p device.Profile, seed int64) *sysserver.Stack {
	stack, err := sysserver.Assemble(p, seed)
	if err != nil {
		log.Fatalf("assemble: %v", err)
	}
	stack.WM.GrantOverlayPermission(evil)
	return stack
}

func runAttack(stack *sysserver.Stack, d time.Duration) {
	atk, err := core.NewOverlayAttack(stack, core.OverlayAttackConfig{
		App: evil, D: d,
		Bounds: geom.RectWH(0, 0, float64(stack.Profile.ScreenW), float64(stack.Profile.ScreenH)),
	})
	if err != nil {
		log.Fatalf("attack: %v", err)
	}
	if err := atk.Start(); err != nil {
		log.Fatalf("start: %v", err)
	}
	stack.Clock.MustAfter(15*time.Second, "stop", atk.Stop)
	if err := stack.Clock.Run(); err != nil {
		log.Fatalf("run: %v", err)
	}
}

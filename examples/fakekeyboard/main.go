// Fakekeyboard: the draw-and-destroy toast attack (Section IV) holding a
// customized toast on screen indefinitely, contrasted with a naive toast
// loop that lets each toast expire before posting the next — the naive
// version flickers (the screen goes toast-free between posts), the attack
// does not, because it rides the 500 ms fade-out animation.
//
//	go run ./examples/fakekeyboard
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

const evil binder.ProcessID = "com.evil.app"

func main() {
	phone := device.Seed().Default()
	kbArea := geom.RectWH(0, 0.625*float64(phone.ScreenH), float64(phone.ScreenW), 0.375*float64(phone.ScreenH))
	const horizon = 20 * time.Second

	// Scenario A: the draw-and-destroy toast attack.
	stackA, err := sysserver.Assemble(phone, 1)
	if err != nil {
		log.Fatalf("assemble: %v", err)
	}
	attack, err := core.NewToastAttack(stackA, core.ToastAttackConfig{
		App:     evil,
		Bounds:  kbArea,
		Content: func() string { return "fake-keyboard:lower" },
	})
	if err != nil {
		log.Fatalf("toast attack: %v", err)
	}
	if err := attack.Start(); err != nil {
		log.Fatalf("start: %v", err)
	}
	// observeRun's results materialize once the clock has run.
	minA := 1.0
	bareA := time.Duration(0)
	{
		last := time.Second
		var probe func()
		probe = func() {
			now := stackA.Clock.Now()
			if now > horizon {
				return
			}
			a := stackA.WM.TopToastAlpha(evil)
			if a < minA {
				minA = a
			}
			if a == 0 {
				bareA += now - last
			}
			last = now
			stackA.Clock.MustAfter(10*time.Millisecond, "observe", probe)
		}
		stackA.Clock.MustAfter(time.Second, "observe", probe)
	}
	stackA.Clock.MustAfter(horizon, "stop", attack.Stop)
	if err := stackA.Clock.Run(); err != nil {
		log.Fatalf("run A: %v", err)
	}

	// Scenario B: a naive loop that posts a toast only after the
	// previous one fully disappeared (what Android's serialization was
	// meant to force).
	stackB, err := sysserver.Assemble(phone, 2)
	if err != nil {
		log.Fatalf("assemble: %v", err)
	}
	var post func()
	post = func() {
		if stackB.Clock.Now() > horizon {
			return
		}
		if _, err := stackB.Bus.Call(evil, binder.SystemServer, sysserver.MethodEnqueueToast, sysserver.EnqueueToastRequest{
			Duration: sysserver.ToastLong,
			Bounds:   kbArea,
			Content:  "fake-keyboard:lower",
		}); err != nil {
			panic(err)
		}
		// Next toast after this one's duration + fade + a think pause.
		stackB.Clock.MustAfter(sysserver.ToastLong+time.Second, "naive/post", post)
	}
	post()
	minB := 1.0
	bareB := time.Duration(0)
	{
		last := time.Second
		var probe func()
		probe = func() {
			now := stackB.Clock.Now()
			if now > horizon {
				return
			}
			a := stackB.WM.TopToastAlpha(evil)
			if a < minB {
				minB = a
			}
			if a == 0 {
				bareB += now - last
			}
			last = now
			stackB.Clock.MustAfter(10*time.Millisecond, "observe", probe)
		}
		stackB.Clock.MustAfter(time.Second, "observe", probe)
	}
	if err := stackB.Clock.Run(); err != nil {
		log.Fatalf("run B: %v", err)
	}

	fmt.Printf("over %v on %s:\n\n", horizon, phone.Name())
	fmt.Printf("draw-and-destroy toast attack (%d toasts):\n", attack.Enqueued())
	fmt.Printf("  min combined opacity: %.2f\n", minA)
	fmt.Printf("  time with no toast:   %v\n\n", bareA.Round(time.Millisecond))
	fmt.Println("naive toast loop (waits for expiry):")
	fmt.Printf("  min combined opacity: %.2f\n", minB)
	fmt.Printf("  time with no toast:   %v   <- the flicker Android's defense forces\n", bareB.Round(time.Millisecond))
}

// Command animsim runs a single attack scenario on a chosen device and
// prints an event timeline — useful for understanding exactly how the
// draw-and-destroy races play out on a particular phone.
//
// Usage:
//
//	animsim -device "pixel 2" -attack overlay -d 280ms -for 3s
//	animsim -device Redmi -attack toast -for 10s
//	animsim -device mi8 -attack steal -password 'tk&%48GH'
package main

import (
	"flag"
	"fmt"
	"os"
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
	"repro/internal/trace"
)

const attackerApp binder.ProcessID = "com.attacker.app"

func main() {
	os.Exit(run())
}

func run() int {
	var (
		model    = flag.String("device", "pixel 2", "device model (see Table II)")
		attack   = flag.String("attack", "overlay", "attack to run: overlay, toast, steal")
		d        = flag.Duration("d", 0, "attacking window D (default: 90% of the device's Table II bound)")
		runFor   = flag.Duration("for", 5*time.Second, "attack duration")
		password = flag.String("password", "tk&%48GH", "password the victim types (steal attack)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		rawTrace = flag.Bool("trace", false, "print every simulation event")
		fig3     = flag.Bool("fig3", false, "print the Fig. 3-style entity-interaction diagram")
	)
	flag.Parse()

	cat := device.Seed()
	p, ok := cat.ByModel(*model)
	if !ok {
		fmt.Fprintf(os.Stderr, "animsim: unknown device %q; known models:\n", *model)
		for _, prof := range cat.Profiles() {
			fmt.Fprintf(os.Stderr, "  %-12s (Android %s, D bound %v)\n", prof.Model, prof.Version, prof.PaperUpperBoundD)
		}
		return 2
	}
	if *d == 0 {
		*d = time.Duration(float64(p.PaperUpperBoundD) * 0.9)
	}
	st, err := sysserver.Assemble(p, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "animsim: %v\n", err)
		return 1
	}
	st.WM.GrantOverlayPermission(attackerApp)
	if *rawTrace {
		st.Clock.SetTrace(func(at time.Duration, label string) {
			fmt.Printf("%12v  %s\n", at, label)
		})
	}
	var recorder *trace.Recorder
	if *fig3 {
		recorder, err = trace.NewRecorder(attackerApp, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "animsim: %v\n", err)
			return 1
		}
		if err := recorder.Attach(st); err != nil {
			fmt.Fprintf(os.Stderr, "animsim: %v\n", err)
			return 1
		}
	}
	fmt.Printf("device: %s — screen %dx%d, alert view %d px, Table II bound %v\n",
		p.Name(), p.ScreenW, p.ScreenH, p.NotifViewHeightPx, p.PaperUpperBoundD)
	fmt.Printf("attack: %s, D = %v, duration %v\n\n", *attack, *d, *runFor)

	var report func()
	switch *attack {
	case "overlay":
		report, err = runOverlay(st, *d, *runFor)
	case "toast":
		report, err = runToast(st, *runFor)
	case "steal":
		report, err = runSteal(st, *d, *password, *seed)
	default:
		fmt.Fprintf(os.Stderr, "animsim: unknown attack %q\n", *attack)
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "animsim: %v\n", err)
		return 1
	}
	if err := st.Clock.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "animsim: run: %v\n", err)
		return 1
	}
	if recorder != nil {
		fmt.Println(recorder.Render())
	}
	report()
	return 0
}

func screenOf(p device.Profile) geom.Rect {
	return geom.RectWH(0, 0, float64(p.ScreenW), float64(p.ScreenH))
}

func runOverlay(st *sysserver.Stack, d, dur time.Duration) (func(), error) {
	atk, err := core.NewOverlayAttack(st, core.OverlayAttackConfig{
		App: attackerApp, D: d, Bounds: screenOf(st.Profile),
	})
	if err != nil {
		return nil, err
	}
	if err := atk.Start(); err != nil {
		return nil, err
	}
	st.Clock.MustAfter(dur, "animsim/stop", atk.Stop)
	return func() {
		fmt.Printf("cycles run:        %d\n", atk.Cycles())
		fmt.Printf("alert episodes:    %d\n", len(st.UI.Episodes()))
		fmt.Printf("worst outcome:     %s (Λ1 = attack fully suppressed the alert)\n", st.UI.WorstOutcome())
		s := st.Server.Stats()
		fmt.Printf("adds/removes:      %d/%d\n", s.AddsCompleted, s.RemovesCompleted)
	}, nil
}

func runToast(st *sysserver.Stack, dur time.Duration) (func(), error) {
	atk, err := core.NewToastAttack(st, core.ToastAttackConfig{
		App:     attackerApp,
		Bounds:  geom.RectWH(0, 0.625*float64(st.Profile.ScreenH), float64(st.Profile.ScreenW), 0.375*float64(st.Profile.ScreenH)),
		Content: func() string { return "fake-keyboard" },
	})
	if err != nil {
		return nil, err
	}
	if err := atk.Start(); err != nil {
		return nil, err
	}
	minAlpha := 1.0
	var probe func()
	probe = func() {
		if st.Clock.Now() > dur {
			return
		}
		if a := st.WM.TopToastAlpha(attackerApp); a < minAlpha {
			minAlpha = a
		}
		st.Clock.MustAfter(10*time.Millisecond, "animsim/probe", probe)
	}
	st.Clock.MustAfter(time.Second, "animsim/probe", probe)
	st.Clock.MustAfter(dur, "animsim/stop", atk.Stop)
	return func() {
		fmt.Printf("toasts enqueued:   %d\n", atk.Enqueued())
		fmt.Printf("toasts shown:      %d\n", st.Server.Stats().ToastsShown)
		fmt.Printf("min opacity:       %.2f (after first fade-in; ≥0.5 means no visible flicker)\n", minAlpha)
		fmt.Printf("alert episodes:    %d (toasts trigger no alert)\n", len(st.UI.Episodes()))
	}, nil
}

func runSteal(st *sysserver.Stack, d time.Duration, password string, seed int64) (func(), error) {
	bofa, ok := apps.ByName("Bank of America")
	if !ok {
		return nil, fmt.Errorf("BofA app missing")
	}
	sess, err := bofa.NewLoginSession(st.Clock, screenOf(st.Profile))
	if err != nil {
		return nil, err
	}
	kb, err := keyboard.New(sess.KeyboardBounds)
	if err != nil {
		return nil, err
	}
	if _, err := ime.Show(st, kb, sess.Activity); err != nil {
		return nil, err
	}
	stealer, err := core.NewPasswordStealer(st, core.PasswordStealerConfig{
		App: attackerApp, Victim: sess, Keyboard: kb, D: d,
	})
	if err != nil {
		return nil, err
	}
	if err := stealer.Arm(); err != nil {
		return nil, err
	}
	typist, err := input.NewTypist(simrand.New(seed))
	if err != nil {
		return nil, err
	}
	st.Clock.MustAfter(500*time.Millisecond, "animsim/focus", func() {
		if err := sess.Activity.Focus(sess.Password); err != nil {
			panic(err)
		}
	})
	ks, err := typist.PlanSession(kb, password, time.Second)
	if err != nil {
		return nil, err
	}
	for _, k := range ks {
		k := k
		st.Clock.MustAfter(k.DownAt, "user/down", func() {
			gid, _, ok := st.WM.BeginGesture(k.Point)
			if !ok {
				return
			}
			st.Clock.MustAfter(k.UpAt-k.DownAt, "user/up", func() {
				if _, err := st.WM.EndGesture(gid, k.Point); err != nil {
					panic(err)
				}
			})
		})
	}
	end := ks[len(ks)-1].UpAt + time.Second
	st.Clock.MustAfter(end, "animsim/stop", stealer.Stop)
	return func() {
		downs, ups, cancels := stealer.CaptureStats()
		fmt.Printf("victim typed:      %q (%d keystrokes incl. sub-keyboard switches)\n", password, len(ks))
		fmt.Printf("attacker derived:  %q\n", stealer.StolenPassword())
		fmt.Printf("victim widget:     %q (filled through the accessibility node)\n", sess.Password.Text())
		fmt.Printf("touches captured:  %d downs, %d ups, %d canceled\n", downs, ups, cancels)
		fmt.Printf("worst outcome:     %s\n", st.UI.WorstOutcome())
	}, nil
}

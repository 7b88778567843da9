package core

import (
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/binder"
	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/ime"
	"repro/internal/input"
	"repro/internal/keyboard"
	"repro/internal/simrand"
	"repro/internal/sysserver"
	"repro/internal/sysui"
)

const evilApp binder.ProcessID = "com.evil.app"

func assemble(t *testing.T, p device.Profile, seed int64) *sysserver.Stack {
	t.Helper()
	st, err := sysserver.Assemble(p, seed)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	st.WM.GrantOverlayPermission(evilApp)
	return st
}

func screenOf(p device.Profile) geom.Rect {
	return geom.RectWH(0, 0, float64(p.ScreenW), float64(p.ScreenH))
}

// triggered reports whether the stealer's accessibility trigger fired.
func triggered(p *PasswordStealer) bool { return p.active || p.stopped }

func TestNewOverlayAttackValidation(t *testing.T) {
	st := assemble(t, device.Seed().Default(), 1)
	valid := OverlayAttackConfig{App: evilApp, D: 100 * time.Millisecond, Bounds: screenOf(st.Profile)}
	if _, err := NewOverlayAttack(nil, valid); err == nil {
		t.Fatal("nil stack accepted")
	}
	for _, tt := range []struct {
		name string
		mut  func(c *OverlayAttackConfig)
	}{
		{"empty app", func(c *OverlayAttackConfig) { c.App = "" }},
		{"zero D", func(c *OverlayAttackConfig) { c.D = 0 }},
		{"negative D", func(c *OverlayAttackConfig) { c.D = -time.Millisecond }},
		{"empty bounds", func(c *OverlayAttackConfig) { c.Bounds = geom.Rect{} }},
	} {
		cfg := valid
		tt.mut(&cfg)
		if _, err := NewOverlayAttack(st, cfg); err == nil {
			t.Errorf("%s accepted", tt.name)
		}
	}
}

// TestOverlayAttackSuppressesAlert is the headline result of Section III:
// with D at the device's Table II bound, a multi-second attack run keeps
// the outcome at Λ1 — the user never sees any part of the alert — while
// the overlays cover the victim almost continuously.
func TestOverlayAttackSuppressesAlert(t *testing.T) {
	for _, model := range []string{"s8", "mi9", "pixel 2", "Redmi"} {
		model := model
		t.Run(model, func(t *testing.T) {
			p, ok := device.Seed().ByModel(model)
			if !ok {
				t.Fatalf("profile %s missing", model)
			}
			st := assemble(t, p, 7)
			// Attack at 85% of the calibrated bound for margin, as a
			// real attacker would after fingerprinting the device.
			d := time.Duration(float64(p.PaperUpperBoundD) * 0.85)
			atk, err := NewOverlayAttack(st, OverlayAttackConfig{App: evilApp, D: d, Bounds: screenOf(p)})
			if err != nil {
				t.Fatalf("NewOverlayAttack: %v", err)
			}
			if err := atk.Start(); err != nil {
				t.Fatalf("Start: %v", err)
			}
			st.Clock.MustAfter(10*time.Second, "stop", atk.Stop)
			if err := st.Clock.RunFor(15 * time.Second); err != nil {
				t.Fatalf("RunFor: %v", err)
			}
			if got := st.UI.WorstOutcome(); got != sysui.Lambda1 {
				t.Fatalf("WorstOutcome = %v, want Λ1 (D=%v)", got, d)
			}
			if atk.Cycles() == 0 {
				t.Fatal("attack never cycled")
			}
			if st.WM.OverlayCount(evilApp) != 0 {
				t.Fatal("overlays left behind after Stop")
			}
		})
	}
}

// TestOverlayAttackFailsWithLargeD: far above the bound the alert becomes
// visible — the attacker's constraint (3) is real.
func TestOverlayAttackFailsWithLargeD(t *testing.T) {
	p, _ := device.Seed().ByModel("s8") // bound 60 ms
	st := assemble(t, p, 11)
	atk, err := NewOverlayAttack(st, OverlayAttackConfig{App: evilApp, D: 2 * time.Second, Bounds: screenOf(p)})
	if err != nil {
		t.Fatalf("NewOverlayAttack: %v", err)
	}
	if err := atk.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	st.Clock.MustAfter(8*time.Second, "stop", atk.Stop)
	if err := st.Clock.RunFor(12 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if got := st.UI.WorstOutcome(); got != sysui.Lambda5 {
		t.Fatalf("WorstOutcome = %v, want Λ5 with D=2s", got)
	}
}

func TestOverlayAttackDoubleStartAndStop(t *testing.T) {
	st := assemble(t, device.Seed().Default(), 13)
	atk, err := NewOverlayAttack(st, OverlayAttackConfig{App: evilApp, D: 100 * time.Millisecond, Bounds: screenOf(st.Profile)})
	if err != nil {
		t.Fatalf("NewOverlayAttack: %v", err)
	}
	if err := atk.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := atk.Start(); err == nil {
		t.Fatal("double Start accepted")
	}
	atk.Stop()
	atk.Stop() // idempotent
	if atk.running {
		t.Fatal("Running after Stop")
	}
}

// TestOverlayCoverageBetweenSwaps: between swaps the overlay must be
// present; immediately after a swap there is only the tiny Tmis gap.
func TestOverlayCoverageBetweenSwaps(t *testing.T) {
	st := assemble(t, device.Seed().Default(), 17)
	atk, err := NewOverlayAttack(st, OverlayAttackConfig{App: evilApp, D: 150 * time.Millisecond, Bounds: screenOf(st.Profile)})
	if err != nil {
		t.Fatalf("NewOverlayAttack: %v", err)
	}
	if err := atk.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	covered, samples := 0, 0
	var probe func()
	probe = func() {
		if st.Clock.Now() > 5*time.Second {
			return
		}
		samples++
		if st.WM.OverlayCount(evilApp) > 0 {
			covered++
		}
		st.Clock.MustAfter(7*time.Millisecond, "probe", probe)
	}
	st.Clock.MustAfter(300*time.Millisecond, "probe", probe)
	st.Clock.MustAfter(6*time.Second, "stop", atk.Stop)
	if err := st.Clock.RunFor(7 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	cov := float64(covered) / float64(samples)
	if cov < 0.9 {
		t.Fatalf("overlay coverage = %.2f, want > 0.9", cov)
	}
}

func TestNewToastAttackValidation(t *testing.T) {
	st := assemble(t, device.Seed().Default(), 1)
	content := func() string { return "x" }
	valid := ToastAttackConfig{App: evilApp, Bounds: screenOf(st.Profile), Content: content}
	if _, err := NewToastAttack(nil, valid); err == nil {
		t.Fatal("nil stack accepted")
	}
	for _, tt := range []struct {
		name string
		mut  func(c *ToastAttackConfig)
	}{
		{"empty app", func(c *ToastAttackConfig) { c.App = "" }},
		{"empty bounds", func(c *ToastAttackConfig) { c.Bounds = geom.Rect{} }},
		{"nil content", func(c *ToastAttackConfig) { c.Content = nil }},
		{"bad duration", func(c *ToastAttackConfig) { c.Duration = time.Second }},
		{"negative refill", func(c *ToastAttackConfig) { c.RefillInterval = -time.Second }},
		{"huge depth", func(c *ToastAttackConfig) { c.TargetQueueDepth = 50 }},
	} {
		cfg := valid
		tt.mut(&cfg)
		if _, err := NewToastAttack(st, cfg); err == nil {
			t.Errorf("%s accepted", tt.name)
		}
	}
}

// TestToastAttackKeepsToastOnScreen is the headline result of Section IV:
// the toast stays continuously visible for an extended period (30 s here,
// an order of magnitude past the 3.5 s legal duration), with the queue
// never exceeding the 50-token cap.
func TestToastAttackKeepsToastOnScreen(t *testing.T) {
	st := assemble(t, device.Seed().Default(), 19)
	atk, err := NewToastAttack(st, ToastAttackConfig{
		App:     evilApp,
		Bounds:  geom.RectWH(0, 1200, 1080, 720),
		Content: func() string { return "fake-keyboard" },
	})
	if err != nil {
		t.Fatalf("NewToastAttack: %v", err)
	}
	if err := atk.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	minAlpha, samples := 2.0, 0
	var probe func()
	probe = func() {
		if st.Clock.Now() > 30*time.Second {
			return
		}
		samples++
		if a := st.WM.TopToastAlpha(evilApp); a < minAlpha {
			minAlpha = a
		}
		if q := st.Server.QueuedToasts(evilApp); q > sysserver.MaxToastTokensPerApp {
			t.Errorf("queue depth %d exceeds cap", q)
		}
		st.Clock.MustAfter(10*time.Millisecond, "probe", probe)
	}
	st.Clock.MustAfter(time.Second, "probe", probe) // after first fade-in
	st.Clock.MustAfter(31*time.Second, "stop", atk.Stop)
	if err := st.Clock.RunFor(40 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if samples == 0 {
		t.Fatal("no samples taken")
	}
	if minAlpha < 0.5 {
		t.Fatalf("toast alpha collapsed to %.3f; fake keyboard flickered", minAlpha)
	}
	if rej := st.Server.Stats().ToastsRejected; rej != 0 {
		t.Fatalf("%d toasts rejected; attack exceeded the cap", rej)
	}
	// No notification alert for toasts.
	if got := len(st.UI.Episodes()); got != 0 {
		t.Fatalf("toast attack produced %d alert episodes, want 0", got)
	}
}

func TestToastAttackSwitchContent(t *testing.T) {
	st := assemble(t, device.Seed().Default(), 23)
	board := "lower"
	atk, err := NewToastAttack(st, ToastAttackConfig{
		App:     evilApp,
		Bounds:  geom.RectWH(0, 1200, 1080, 720),
		Content: func() string { return "kbd:" + board },
	})
	if err != nil {
		t.Fatalf("NewToastAttack: %v", err)
	}
	if err := atk.SwitchContent(); err == nil {
		t.Fatal("SwitchContent before Start accepted")
	}
	if err := atk.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	st.Clock.MustAfter(2*time.Second, "switch", func() {
		board = "upper"
		if err := atk.SwitchContent(); err != nil {
			t.Errorf("SwitchContent: %v", err)
		}
	})
	st.Clock.MustAfter(4*time.Second, "stop", atk.Stop)
	if err := st.Clock.RunFor(10 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	recs := st.Server.Toasts()
	if len(recs) < 2 {
		t.Fatalf("records = %d, want ≥ 2", len(recs))
	}
	// The switched toast displays the new board shortly after 2s, not
	// 3.5s later.
	var switched *sysserver.ToastRecord
	for i := range recs {
		if recs[i].Content == "kbd:upper" {
			switched = &recs[i]
			break
		}
	}
	if switched == nil {
		t.Fatal("upper-board toast never displayed")
	}
	if switched.ShownAt > 2500*time.Millisecond {
		t.Fatalf("switched toast shown at %v, want ≈2s (immediate switch)", switched.ShownAt)
	}
}

// TestPasswordStealerEndToEnd runs the full Section V attack on the Bank
// of America login: with perfectly centered touches the decoded password
// must match exactly, and the real widget must be filled via the captured
// node reference.
func TestPasswordStealerEndToEnd(t *testing.T) {
	// Android 9 device: the mistouch window approaches zero, so a
	// deterministic exact-recovery run is expected (Section III-D).
	p, ok := device.Seed().ByModel("mi8")
	if !ok {
		t.Fatal("mi8 profile missing")
	}
	st := assemble(t, p, 29)
	bofa, _ := apps.ByName("Bank of America")
	sess, err := bofa.NewLoginSession(st.Clock, screenOf(p))
	if err != nil {
		t.Fatalf("NewLoginSession: %v", err)
	}
	kb, err := keyboard.New(sess.KeyboardBounds)
	if err != nil {
		t.Fatalf("keyboard.New: %v", err)
	}
	if _, err := ime.Show(st, kb, sess.Activity); err != nil {
		t.Fatalf("ime.Show: %v", err)
	}
	stealer, err := NewPasswordStealer(st, PasswordStealerConfig{
		App:      evilApp,
		Victim:   sess,
		Keyboard: kb,
		D:        time.Duration(float64(p.PaperUpperBoundD) * 0.85),
	})
	if err != nil {
		t.Fatalf("NewPasswordStealer: %v", err)
	}
	if err := stealer.Arm(); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	if triggered(stealer) {
		t.Fatal("stealer triggered before focus")
	}

	const password = "tk&%48GH" // the paper's demo password
	// Let the binder queue settle, then focus the password field and
	// type with exact key centers (no human scatter) at a fixed cadence.
	st.Clock.MustAfter(time.Second, "focus", func() {
		if err := sess.Activity.Focus(sess.Password); err != nil {
			t.Errorf("Focus: %v", err)
		}
	})
	presses, err := kb.PlanPresses(password)
	if err != nil {
		t.Fatalf("PlanPresses: %v", err)
	}
	base := 2 * time.Second
	const cadence = 300 * time.Millisecond
	for i, pr := range presses {
		pr := pr
		down := base + time.Duration(i)*cadence
		st.Clock.MustAfter(down, "touch", func() {
			gid, _, ok := st.WM.BeginGesture(pr.Key.Center())
			if !ok {
				return
			}
			st.Clock.MustAfter(60*time.Millisecond, "up", func() {
				if _, err := st.WM.EndGesture(gid, pr.Key.Center()); err != nil {
					t.Errorf("EndGesture: %v", err)
				}
			})
		})
	}
	end := base + time.Duration(len(presses))*cadence + time.Second
	st.Clock.MustAfter(end, "stop", stealer.Stop)
	if err := st.Clock.RunFor(end + 10*time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}

	if !triggered(stealer) {
		t.Fatal("stealer never triggered")
	}
	if got := stealer.StolenPassword(); got != password {
		t.Fatalf("stolen password = %q, want %q", got, password)
	}
	// Stealth: the real widget was filled through the node reference.
	if got := sess.Password.Text(); got != password {
		t.Fatalf("victim widget text = %q, want %q (programmatic fill)", got, password)
	}
	// Stealth: no alert ever became visible.
	if got := st.UI.WorstOutcome(); got != sysui.Lambda1 {
		t.Fatalf("WorstOutcome = %v, want Λ1", got)
	}
	downs, _, _ := stealer.CaptureStats()
	if downs != uint64(len(presses)) {
		t.Fatalf("captured %d downs, want %d", downs, len(presses))
	}
}

// TestPasswordStealerAlipayBypass: the Alipay password widget emits no
// accessibility events; the stealer must trigger off the username widget's
// lone CONTENT_CHANGED and reach the password reference via getParent().
func TestPasswordStealerAlipayBypass(t *testing.T) {
	p := device.Seed().Default()
	st := assemble(t, p, 31)
	alipay, _ := apps.ByName("Alipay")
	sess, err := alipay.NewLoginSession(st.Clock, screenOf(p))
	if err != nil {
		t.Fatalf("NewLoginSession: %v", err)
	}
	kb, err := keyboard.New(sess.KeyboardBounds)
	if err != nil {
		t.Fatalf("keyboard.New: %v", err)
	}
	stealer, err := NewPasswordStealer(st, PasswordStealerConfig{
		App: evilApp, Victim: sess, Keyboard: kb, D: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewPasswordStealer: %v", err)
	}
	if err := stealer.Arm(); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	// User types a username, then switches focus to the password field.
	if err := sess.Activity.Focus(sess.Username); err != nil {
		t.Fatalf("Focus: %v", err)
	}
	for _, r := range "alice" {
		if err := sess.Activity.TypeRune(r); err != nil {
			t.Fatalf("TypeRune: %v", err)
		}
	}
	if triggered(stealer) {
		t.Fatal("stealer triggered during username typing")
	}
	if err := sess.Activity.Focus(sess.Password); err != nil {
		t.Fatalf("Focus password: %v", err)
	}
	if !triggered(stealer) {
		t.Fatal("stealer did not trigger on focus switch")
	}
	// The bypass found the suppressed password widget.
	if err := st.Clock.RunFor(time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	// Type one key and check the fill reaches the real widget.
	a, _ := kb.FindKey(keyboard.BoardLower, "a")
	gid, _, ok := st.WM.BeginGesture(a.Center())
	if !ok {
		t.Fatal("gesture missed")
	}
	if _, err := st.WM.EndGesture(gid, a.Center()); err != nil {
		t.Fatalf("EndGesture: %v", err)
	}
	if got := sess.Password.Text(); got != "a" {
		t.Fatalf("victim widget = %q; bypass fill failed", got)
	}
	stealer.Stop()
	if err := st.Clock.RunFor(5 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
}

// TestPasswordStealerWithHumanTouches runs a realistic session with a
// stochastic typist; the decoded password is allowed scatter-induced
// near-miss errors but the pipeline must capture nearly all keystrokes.
func TestPasswordStealerWithHumanTouches(t *testing.T) {
	p, _ := device.Seed().ByModel("mi8") // Android 9, bound 215ms
	st := assemble(t, p, 37)
	bofa, _ := apps.ByName("Bank of America")
	sess, err := bofa.NewLoginSession(st.Clock, screenOf(p))
	if err != nil {
		t.Fatalf("NewLoginSession: %v", err)
	}
	kb, err := keyboard.New(sess.KeyboardBounds)
	if err != nil {
		t.Fatalf("keyboard.New: %v", err)
	}
	if _, err := ime.Show(st, kb, sess.Activity); err != nil {
		t.Fatalf("ime.Show: %v", err)
	}
	stealer, err := NewPasswordStealer(st, PasswordStealerConfig{
		App: evilApp, Victim: sess, Keyboard: kb,
		D: time.Duration(float64(p.PaperUpperBoundD) * 0.85),
	})
	if err != nil {
		t.Fatalf("NewPasswordStealer: %v", err)
	}
	if err := stealer.Arm(); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	typist, err := input.NewTypist(simrand.New(41))
	if err != nil {
		t.Fatalf("NewTypist: %v", err)
	}
	const password = "Secret99"
	ks, err := typist.PlanSession(kb, password, 2*time.Second)
	if err != nil {
		t.Fatalf("PlanSession: %v", err)
	}
	st.Clock.MustAfter(time.Second, "focus", func() {
		if err := sess.Activity.Focus(sess.Password); err != nil {
			t.Errorf("Focus: %v", err)
		}
	})
	for _, k := range ks {
		k := k
		st.Clock.MustAfter(k.DownAt, "down", func() {
			gid, _, ok := st.WM.BeginGesture(k.Point)
			if !ok {
				return
			}
			st.Clock.MustAfter(k.UpAt-k.DownAt, "up", func() {
				if _, err := st.WM.EndGesture(gid, k.Point); err != nil {
					t.Errorf("EndGesture: %v", err)
				}
			})
		})
	}
	end := ks[len(ks)-1].UpAt + time.Second
	st.Clock.MustAfter(end, "stop", stealer.Stop)
	if err := st.Clock.RunFor(end + 10*time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	downs, _, _ := stealer.CaptureStats()
	if downs < uint64(len(ks))-1 {
		t.Fatalf("captured %d/%d downs; Android 9 keystroke capture should be near-total", downs, len(ks))
	}
	if st.UI.WorstOutcome() != sysui.Lambda1 {
		t.Fatalf("alert became visible: %v", st.UI.WorstOutcome())
	}
}

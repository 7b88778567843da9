package analysis

import (
	"testing"
	"time"

	"repro/internal/binder"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/sysserver"
)

const evilApp binder.ProcessID = "com.evil.app"

func TestExpectedMistouchTimeValidation(t *testing.T) {
	p := device.Seed().Default()
	if _, err := ExpectedMistouchTime(p, 0, time.Second); err == nil {
		t.Fatal("zero period accepted")
	}
	if _, err := ExpectedMistouchTime(p, time.Second, 0); err == nil {
		t.Fatal("zero D accepted")
	}
}

func TestEquation2Monotonicity(t *testing.T) {
	p := device.Seed().Default()
	// E(Tm) decreases as D increases (the paper's key observation about
	// choosing D).
	prev := time.Duration(1<<62 - 1)
	for _, d := range []time.Duration{50, 100, 150, 200, 300} {
		tm, err := ExpectedMistouchTime(p, 10*time.Second, d*time.Millisecond)
		if err != nil {
			t.Fatalf("ExpectedMistouchTime: %v", err)
		}
		if tm > prev {
			t.Fatalf("E(Tm) increased at D=%vms: %v > %v", d, tm, prev)
		}
		prev = tm
	}
}

// TestEquation2MatchesSimulation is the math-versus-system ablation: the
// simulated total no-overlay time during an attack run must match
// Equation (2) within a tight tolerance.
func TestEquation2MatchesSimulation(t *testing.T) {
	for _, model := range []string{"mi8", "mi9"} {
		model := model
		t.Run(model, func(t *testing.T) {
			p, ok := device.Seed().ByModel(model)
			if !ok {
				t.Fatalf("profile %s missing", model)
			}
			const total = 20 * time.Second
			d := 200 * time.Millisecond

			st, err := sysserver.Assemble(p, 61)
			if err != nil {
				t.Fatalf("Assemble: %v", err)
			}
			st.WM.GrantOverlayPermission(evilApp)
			atk, err := core.NewOverlayAttack(st, core.OverlayAttackConfig{
				App: evilApp, D: d,
				Bounds: geom.RectWH(0, 0, float64(p.ScreenW), float64(p.ScreenH)),
			})
			if err != nil {
				t.Fatalf("NewOverlayAttack: %v", err)
			}
			if err := atk.Start(); err != nil {
				t.Fatalf("Start: %v", err)
			}
			// Integrate the no-overlay time by sampling at 0.5 ms.
			var bare time.Duration
			last := time.Duration(0)
			var probe func()
			probe = func() {
				now := st.Clock.Now()
				if now > total {
					return
				}
				if st.WM.OverlayCount(evilApp) == 0 {
					bare += now - last
				}
				last = now
				st.Clock.MustAfter(500*time.Microsecond, "probe", probe)
			}
			st.Clock.MustAfter(0, "probe", probe)
			st.Clock.MustAfter(total, "stop", atk.Stop)
			if err := st.Clock.RunFor(total + time.Second); err != nil {
				t.Fatalf("RunFor: %v", err)
			}

			want, err := ExpectedMistouchTime(p, total, d)
			if err != nil {
				t.Fatalf("ExpectedMistouchTime: %v", err)
			}
			diff := bare - want
			if diff < 0 {
				diff = -diff
			}
			// Tolerance: sampling quantization + spike variance. The
			// prediction is ~60-220 ms over 20 s; allow 40%.
			if float64(diff) > 0.4*float64(want)+float64(10*time.Millisecond) {
				t.Fatalf("simulated mistouch %v vs Equation (2) %v (Δ %v)", bare, want, diff)
			}
		})
	}
}

func TestExpectedDownCaptureRate(t *testing.T) {
	p, ok := device.Seed().ByModel("mi9") // Android 10, E[Tmis] ≈ 2.2 ms
	if !ok {
		t.Fatal("mi9 missing")
	}
	r, err := ExpectedDownCaptureRate(p, 200*time.Millisecond)
	if err != nil {
		t.Fatalf("ExpectedDownCaptureRate: %v", err)
	}
	if r < 0.97 || r >= 1 {
		t.Fatalf("rate = %v, want ≈0.989", r)
	}
	if _, err := ExpectedDownCaptureRate(p, 0); err == nil {
		t.Fatal("zero D accepted")
	}
}

func TestExpectedGestureCaptureRate(t *testing.T) {
	p, ok := device.Seed().ByModel("mi8")
	if !ok {
		t.Fatal("mi8 missing")
	}
	press := 14 * time.Millisecond
	r50, err := ExpectedGestureCaptureRate(p, 50*time.Millisecond, press)
	if err != nil {
		t.Fatalf("rate at 50ms: %v", err)
	}
	r200, err := ExpectedGestureCaptureRate(p, 200*time.Millisecond, press)
	if err != nil {
		t.Fatalf("rate at 200ms: %v", err)
	}
	if !(r50 < r200) {
		t.Fatalf("capture not increasing in D: %v vs %v", r50, r200)
	}
	// Fig. 7 band: ~0.6-0.75 at 50 ms, ~0.9+ at 200 ms.
	if r50 < 0.55 || r50 > 0.8 {
		t.Fatalf("rate at 50ms = %v", r50)
	}
	if r200 < 0.88 {
		t.Fatalf("rate at 200ms = %v", r200)
	}
	// Degenerate: press longer than cycle → zero capture.
	r, err := ExpectedGestureCaptureRate(p, 10*time.Millisecond, time.Second)
	if err != nil || r != 0 {
		t.Fatalf("degenerate rate = (%v,%v), want 0", r, err)
	}
	if _, err := ExpectedGestureCaptureRate(p, 0, press); err == nil {
		t.Fatal("zero D accepted")
	}
	if _, err := ExpectedGestureCaptureRate(p, time.Second, -time.Second); err == nil {
		t.Fatal("negative press accepted")
	}
}

func TestAttackPeriod(t *testing.T) {
	got, err := AttackPeriod(300*time.Millisecond, 8)
	if err != nil || got != 2400*time.Millisecond {
		t.Fatalf("AttackPeriod = (%v,%v), want 2.4s", got, err)
	}
	if _, err := AttackPeriod(0, 8); err == nil {
		t.Fatal("zero per-key accepted")
	}
	if _, err := AttackPeriod(time.Second, 0); err == nil {
		t.Fatal("zero length accepted")
	}
}

func TestMistouchBudget(t *testing.T) {
	p := device.Seed().Default()
	got, err := MistouchBudget(p, 10*time.Second, 200*time.Millisecond, 300*time.Millisecond)
	if err != nil {
		t.Fatalf("MistouchBudget: %v", err)
	}
	if got <= 0 || got > 3 {
		t.Fatalf("budget = %v lost keystrokes, want small positive", got)
	}
	if _, err := MistouchBudget(p, 10*time.Second, 200*time.Millisecond, 0); err == nil {
		t.Fatal("zero per-key accepted")
	}
}

// TestPredictTableII: the analytical Equation (3) bound must sit at the
// paper's value plus the documented 10 ms calibration headroom.
func TestPredictTableII(t *testing.T) {
	rows := PredictTableII()
	if len(rows) != 30 {
		t.Fatalf("rows = %d, want 30", len(rows))
	}
	for _, r := range rows {
		diff := r.Analytical - (r.Paper + 10*time.Millisecond)
		if diff < 0 {
			diff = -diff
		}
		if diff > 10*time.Millisecond {
			t.Errorf("%s: analytical %v vs paper %v", r.Model, r.Analytical, r.Paper)
		}
	}
}

// TestUpperBoundDOrdering: Equation (3) reproduces the version ordering —
// Android 10 devices enjoy larger bounds than comparable Android 8 ones
// thanks to the ANA delay.
func TestUpperBoundDOrdering(t *testing.T) {
	mean := func(major int) time.Duration {
		ps := device.ByVersionIn(device.Seed(), major)
		var sum time.Duration
		for _, p := range ps {
			sum += UpperBoundD(p)
		}
		return sum / time.Duration(len(ps))
	}
	if m10, m8 := mean(10), mean(8); m10 <= m8 {
		t.Fatalf("Equation (3): Android 10 mean bound %v ≤ Android 8 %v", m10, m8)
	}
}

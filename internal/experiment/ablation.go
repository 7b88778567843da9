package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/device"
	"repro/internal/sysserver"
	"repro/internal/sysui"
)

// AblationReport collects the design-choice studies: each row removes one
// mechanism the paper identifies as load-bearing and shows the attack (or
// defense) outcome flipping.
type AblationReport struct {
	// SlideAnimation: the overlay attack's outcome with the stock 360 ms
	// slide versus a near-instant alert. The slow-in animation IS the
	// vulnerability — without it the alert shows even at small D.
	SlideStock, SlideInstant sysui.Outcome
	// ANADelay: the measured Λ1 bound on an Android 10 phone with and
	// without the 100 ms Android-Notification-Assistant delay; the delay
	// is why Table II's Android 10 bounds are larger.
	BoundWithANA, BoundWithoutANA time.Duration
	// CallOrder: the attack outcome with the correct remove-then-add
	// order versus the blocking add-then-remove order the paper warns
	// about.
	OrderCorrect, OrderInverted sysui.Outcome
	// ToastFade: the fake keyboard's minimum on-screen opacity during a
	// toast chain with the stock 500 ms fade versus a 1 ms fade. The
	// fade-out is what hides the hand-off.
	MinAlphaStockFade, MinAlphaNoFade float64
}

// Ablations runs all four studies on the paper's calibration phones.
func Ablations(seed int64) (AblationReport, error) {
	var rep AblationReport
	// The unablated attack is the baseline of both the slide and the
	// call-order rows.
	stock, err := ablationAttack(seed, false)
	if err != nil {
		return rep, fmt.Errorf("experiment: stock attack: %w", err)
	}
	rep.SlideStock, rep.OrderCorrect = stock, stock
	if rep.SlideInstant, err = ablationAttack(seed, false, sysserver.WithSlideDuration(10*time.Millisecond)); err != nil {
		return rep, fmt.Errorf("experiment: slide ablation: %w", err)
	}
	if rep.BoundWithANA, rep.BoundWithoutANA, err = ablationANA(seed); err != nil {
		return rep, fmt.Errorf("experiment: ANA ablation: %w", err)
	}
	if rep.OrderInverted, err = ablationAttack(seed, true); err != nil {
		return rep, fmt.Errorf("experiment: order ablation: %w", err)
	}
	if rep.MinAlphaStockFade, rep.MinAlphaNoFade, err = ablationToastFade(seed); err != nil {
		return rep, fmt.Errorf("experiment: toast-fade ablation: %w", err)
	}
	return rep, nil
}

// ablationSettle is how long the ablation runs let the stack settle after
// stopping the attack before reading the worst outcome.
const ablationSettle = 4 * time.Second

// ablationAttack runs the overlay attack for 8 s on the Mi 8 at 0.9× its
// bound; addFirst (the swap's call order) and opts (a near-instant alert
// slide) ablate a mechanism.
func ablationAttack(seed int64, addFirst bool, opts ...sysserver.Option) (sysui.Outcome, error) {
	p, err := seedDevice("mi8")
	if err != nil {
		return 0, err
	}
	st, err := assembleAttackStack(p, seed, opts...)
	if err != nil {
		return 0, err
	}
	return runOverlayAttackOn(st, time.Duration(float64(boundOf(p))*0.9), 8*time.Second, ablationSettle, addFirst, 0)
}

// ablationANA measures the Λ1 bound on an Android 10 phone with the stock
// ANA delay and with the delay removed.
func ablationANA(seed int64) (with, without time.Duration, err error) {
	p, err := seedDevice("mi9")
	if err != nil {
		return 0, 0, err
	}
	measure := func(noANA bool) (time.Duration, error) {
		return largestPassingD(5*time.Millisecond, 800*time.Millisecond, func(d time.Duration) (bool, error) {
			for r := 0; r < 2; r++ {
				st, err := assembleAttackStack(p, seed+int64(r)*101)
				if err != nil {
					return false, err
				}
				if noANA {
					st.Server.SetANADelay(0)
				}
				o, err := runOverlayAttackOn(st, d, 4*time.Second, ablationSettle, false, 0)
				if err != nil || o != sysui.Lambda1 {
					return false, err
				}
			}
			return true, nil
		})
	}
	if with, err = measure(false); err != nil {
		return 0, 0, err
	}
	if without, err = measure(true); err != nil {
		return 0, 0, err
	}
	return with, without, nil
}

// ablationToastFade measures the fake keyboard's minimum opacity during a
// fed toast chain with the stock fade versus no fade.
func ablationToastFade(seed int64) (stockFade, noFade float64, err error) {
	p := device.Seed().Default()
	if stockFade, err = toastMinAlpha(p, seed, 5*time.Millisecond, nil); err != nil {
		return 0, 0, err
	}
	noFade, err = toastMinAlpha(p, seed, 5*time.Millisecond, func(st *sysserver.Stack) {
		st.Server.SetToastFade(time.Millisecond)
	})
	if err != nil {
		return 0, 0, err
	}
	return stockFade, noFade, nil
}

// RenderAblations formats the report.
func RenderAblations(r AblationReport) string {
	var sb strings.Builder
	sb.WriteString("Ablations — removing each load-bearing mechanism\n")
	fmt.Fprintf(&sb, "  slide animation:   stock 360ms → %s;  instant alert → %s (attack dies)\n",
		r.SlideStock, r.SlideInstant)
	fmt.Fprintf(&sb, "  ANA delay (mi9):   with 100ms → bound %v;  without → %v (bound shrinks)\n",
		r.BoundWithANA, r.BoundWithoutANA)
	fmt.Fprintf(&sb, "  swap call order:   remove-then-add → %s;  add-then-remove → %s (paper's warning)\n",
		r.OrderCorrect, r.OrderInverted)
	fmt.Fprintf(&sb, "  toast fade-out:    stock 500ms → min opacity %.2f;  no fade → %.2f (visible flicker)\n",
		r.MinAlphaStockFade, r.MinAlphaNoFade)
	return sb.String()
}

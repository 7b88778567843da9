package input

import (
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/keyboard"
	"repro/internal/simrand"
)

func newKB(t *testing.T) *keyboard.Keyboard {
	t.Helper()
	kb, err := keyboard.New(geom.RectWH(0, 1200, 1080, 720))
	if err != nil {
		t.Fatalf("keyboard.New: %v", err)
	}
	return kb
}

func TestNewTypistValidation(t *testing.T) {
	if _, err := NewTypist(nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestTypistParametersInPopulationRange(t *testing.T) {
	rng := simrand.New(1)
	for i := 0; i < 50; i++ {
		ty, err := NewTypist(rng.DeriveIndexed("t", i))
		if err != nil {
			t.Fatalf("NewTypist: %v", err)
		}
		if m := ty.InterKey.Mean; m < 240 || m > 330 {
			t.Fatalf("cadence mean %v out of population range", m)
		}
		if m := ty.Press.Mean; m < 11 || m > 17 {
			t.Fatalf("press mean %v out of population range", m)
		}
		if ty.ScatterPx < 14 || ty.ScatterPx > 20 {
			t.Fatalf("scatter %v out of population range", ty.ScatterPx)
		}
	}
}

func TestPlanSessionTimesMonotone(t *testing.T) {
	kb := newKB(t)
	ty, err := NewTypist(simrand.New(7))
	if err != nil {
		t.Fatalf("NewTypist: %v", err)
	}
	ks, err := ty.PlanSession(kb, "hello", 100*time.Millisecond)
	if err != nil {
		t.Fatalf("PlanSession: %v", err)
	}
	if len(ks) != 5 {
		t.Fatalf("keystrokes = %d, want 5", len(ks))
	}
	prev := 100 * time.Millisecond
	for i, k := range ks {
		if k.DownAt <= prev {
			t.Fatalf("keystroke %d DownAt %v not after %v", i, k.DownAt, prev)
		}
		if k.UpAt <= k.DownAt {
			t.Fatalf("keystroke %d UpAt %v not after DownAt %v", i, k.UpAt, k.DownAt)
		}
		if k.UpAt-k.DownAt > 40*time.Millisecond {
			t.Fatalf("press window %v exceeds max", k.UpAt-k.DownAt)
		}
		prev = k.UpAt
	}
}

func TestPlanSessionIncludesTransitions(t *testing.T) {
	kb := newKB(t)
	ty, err := NewTypist(simrand.New(7))
	if err != nil {
		t.Fatalf("NewTypist: %v", err)
	}
	ks, err := ty.PlanSession(kb, "aB", 0)
	if err != nil {
		t.Fatalf("PlanSession: %v", err)
	}
	// a, shift, B.
	if len(ks) != 3 {
		t.Fatalf("keystrokes = %d, want 3", len(ks))
	}
	if ks[1].Press.Key.Kind != keyboard.KindShift {
		t.Fatalf("keystroke 1 = %+v, want shift", ks[1].Press.Key)
	}
}

func TestPlanSessionUntypeable(t *testing.T) {
	kb := newKB(t)
	ty, err := NewTypist(simrand.New(7))
	if err != nil {
		t.Fatalf("NewTypist: %v", err)
	}
	if _, err := ty.PlanSession(kb, "ü", 0); err == nil {
		t.Fatal("untypeable text accepted")
	}
}

// TestMisspellInjection: with MisspellProb forced to 1, every character
// press becomes a wrong-key + backspace + correct triplet, and the triplet
// still decodes to the intended text via the attacker's decoder.
func TestMisspellInjection(t *testing.T) {
	kb := newKB(t)
	ty, err := NewTypist(simrand.New(43))
	if err != nil {
		t.Fatalf("NewTypist: %v", err)
	}
	ty.MisspellProb = 1
	ks, err := ty.PlanSession(kb, "ab", 0)
	if err != nil {
		t.Fatalf("PlanSession: %v", err)
	}
	// Each of the 2 chars → wrong, backspace, correct.
	if len(ks) != 6 {
		t.Fatalf("keystrokes = %d, want 6", len(ks))
	}
	if ks[1].Press.Key.Kind != keyboard.KindBackspace {
		t.Fatalf("keystroke 1 = %v, want backspace", ks[1].Press.Key.Kind)
	}
	dec := keyboard.NewDecoder(kb)
	for _, k := range ks {
		dec.Observe(k.Press.Key.Center())
	}
	if got := dec.Password(); got != "ab" {
		t.Fatalf("decoded %q, want ab (correction transparent to the attack)", got)
	}
}

func TestMisspellProbInPopulationRange(t *testing.T) {
	rng := simrand.New(47)
	for i := 0; i < 30; i++ {
		ty, err := NewTypist(rng.DeriveIndexed("m", i))
		if err != nil {
			t.Fatalf("NewTypist: %v", err)
		}
		if ty.MisspellProb < 0.001 || ty.MisspellProb > 0.009 {
			t.Fatalf("MisspellProb = %v out of range", ty.MisspellProb)
		}
	}
}

func TestScatterIsCentered(t *testing.T) {
	ty, err := NewTypist(simrand.New(11))
	if err != nil {
		t.Fatalf("NewTypist: %v", err)
	}
	center := geom.Pt(500, 1500)
	var sumX, sumY float64
	const n = 5000
	for i := 0; i < n; i++ {
		p := ty.Scatter(center)
		sumX += p.X - center.X
		sumY += p.Y - center.Y
	}
	if meanX := sumX / n; meanX < -2 || meanX > 2 {
		t.Fatalf("scatter bias X = %v", meanX)
	}
	if meanY := sumY / n; meanY < -2 || meanY > 2 {
		t.Fatalf("scatter bias Y = %v", meanY)
	}
}

// TestScatterWrongKeyRateCalibration: the per-keystroke nearest-key
// misclassification rate must land in the band implied by Table III
// (roughly 0.2%–1.5%).
func TestScatterWrongKeyRateCalibration(t *testing.T) {
	kb := newKB(t)
	rng := simrand.New(13)
	wrong, total := 0, 0
	keys := kb.Keys(keyboard.BoardLower)
	for i := 0; i < 40; i++ {
		ty, err := NewTypist(rng.DeriveIndexed("u", i))
		if err != nil {
			t.Fatalf("NewTypist: %v", err)
		}
		for _, key := range keys {
			if key.Kind != keyboard.KindChar {
				continue
			}
			for j := 0; j < 40; j++ {
				p := ty.Scatter(key.Center())
				got := kb.NearestKey(keyboard.BoardLower, p)
				if got.Label != key.Label {
					wrong++
				}
				total++
			}
		}
	}
	rate := float64(wrong) / float64(total)
	if rate < 0.001 || rate > 0.02 {
		t.Fatalf("wrong-key rate = %.4f, want within [0.001, 0.02] (Table III band)", rate)
	}
}

func TestRandomPasswordProperties(t *testing.T) {
	rng := simrand.New(17)
	kb := newKB(t)
	for _, length := range []int{4, 6, 8, 10, 12} {
		pw := RandomPassword(rng, length)
		if len(pw) != length {
			t.Fatalf("password %q length %d, want %d", pw, len(pw), length)
		}
		// Every generated password must be typeable on the layout.
		if _, err := kb.PlanPresses(pw); err != nil {
			t.Fatalf("password %q not typeable: %v", pw, err)
		}
	}
}

func TestRandomPasswordSpansBoards(t *testing.T) {
	rng := simrand.New(19)
	sawUpper, sawSymbol := false, false
	for i := 0; i < 50; i++ {
		pw := RandomPassword(rng, 12)
		if strings.ContainsAny(pw, "ABCDEFGHIJKLMNOPQRSTUVWXYZ") {
			sawUpper = true
		}
		if strings.ContainsAny(pw, "@#$%&-+()/*\"':;!?0123456789") {
			sawSymbol = true
		}
	}
	if !sawUpper || !sawSymbol {
		t.Fatalf("passwords never spanned sub-keyboards (upper=%v symbols=%v)", sawUpper, sawSymbol)
	}
}

func TestRandomString(t *testing.T) {
	rng := simrand.New(23)
	s := RandomString(rng, 10)
	if len(s) != 10 {
		t.Fatalf("length = %d, want 10", len(s))
	}
	for _, r := range s {
		if r < 'a' || r > 'z' {
			t.Fatalf("string %q contains non-lowercase %q", s, r)
		}
	}
}

func TestParticipants(t *testing.T) {
	rng := simrand.New(29)
	ps, err := Participants(rng, 30)
	if err != nil {
		t.Fatalf("Participants: %v", err)
	}
	if len(ps) != 30 {
		t.Fatalf("participants = %d, want 30", len(ps))
	}
	// Participants differ (independent draws).
	same := 0
	for i := 1; i < len(ps); i++ {
		if ps[i].ScatterPx == ps[0].ScatterPx {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("%d participants share scatter with participant 0; draws not independent", same)
	}
	if _, err := Participants(rng, 0); err == nil {
		t.Fatal("zero participants accepted")
	}
}

func TestMeanCadence(t *testing.T) {
	ty, err := NewTypist(simrand.New(31))
	if err != nil {
		t.Fatalf("NewTypist: %v", err)
	}
	mc := ty.InterKey.MeanDuration()
	if mc < 240*time.Millisecond || mc > 330*time.Millisecond {
		t.Fatalf("mean cadence = %v, want within population range", mc)
	}
}

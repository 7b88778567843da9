package anim

import (
	"math"
	"testing"
	"time"

	"repro/internal/simclock"
)

func mustAnim(t *testing.T, c *simclock.Clock, cfg Config) *Animation {
	t.Helper()
	a, err := New(c, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return a
}

// frameLog records what an animation rendered, through its OnFrame hook.
type frameLog struct {
	frames int
	peak   float64
}

func (l *frameLog) observe(v float64) {
	l.frames++
	l.peak = math.Max(l.peak, v)
}

func TestNewValidation(t *testing.T) {
	c := simclock.New()
	if _, err := New(nil, Config{Duration: time.Second}); err == nil {
		t.Fatal("nil clock accepted")
	}
	if _, err := New(c, Config{Duration: 0}); err == nil {
		t.Fatal("zero duration accepted")
	}
	if _, err := New(c, Config{Duration: time.Second, FrameInterval: -time.Millisecond}); err == nil {
		t.Fatal("negative frame interval accepted")
	}
}

func TestAnimationRunsToCompletion(t *testing.T) {
	c := simclock.New()
	var values []float64
	completed := false
	a := mustAnim(t, c, Config{
		Name:          "n",
		Duration:      100 * time.Millisecond,
		FrameInterval: 10 * time.Millisecond,
		OnFrame:       func(v float64) { values = append(values, v) },
		OnEnd:         func(done bool) { completed = done },
	})
	if err := a.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !completed {
		t.Fatal("OnEnd(completed=false), want true")
	}
	if a.State() != StateFinished {
		t.Fatalf("State = %v, want finished", a.State())
	}
	// 10 frames at 10..100ms with linear easing: 0.1, 0.2, ..., 1.0.
	if len(values) != 10 {
		t.Fatalf("frames = %d, want 10", len(values))
	}
	for i, v := range values {
		want := float64(i+1) / 10
		if math.Abs(v-want) > 1e-9 {
			t.Fatalf("frame %d value = %v, want %v", i, v, want)
		}
	}
}

func TestFirstFrameDelay(t *testing.T) {
	c := simclock.New()
	var firstFrameAt time.Duration = -1
	a := mustAnim(t, c, Config{
		Duration:      360 * time.Millisecond,
		FrameInterval: 10 * time.Millisecond,
		Interpolator:  FastOutSlowIn(),
		OnFrame: func(v float64) {
			if firstFrameAt < 0 {
				firstFrameAt = c.Now()
			}
		},
	})
	if err := a.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := c.RunUntil(25 * time.Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if firstFrameAt != 10*time.Millisecond {
		t.Fatalf("first frame at %v, want 10ms (refresh-rate delay)", firstFrameAt)
	}
	a.Cancel()
}

func TestCancelStopsFrames(t *testing.T) {
	c := simclock.New()
	frames := 0
	ended := false
	a := mustAnim(t, c, Config{
		Duration:      100 * time.Millisecond,
		FrameInterval: 10 * time.Millisecond,
		OnFrame:       func(float64) { frames++ },
		OnEnd:         func(done bool) { ended = !done },
	})
	if err := a.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := c.RunUntil(35 * time.Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	a.Cancel()
	if err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if frames != 3 {
		t.Fatalf("frames = %d, want 3 (at 10,20,30ms)", frames)
	}
	if a.State() != StateCanceled {
		t.Fatalf("State = %v, want canceled", a.State())
	}
	if !ended {
		t.Fatal("OnEnd not called with completed=false on cancel")
	}
	// Value frozen at last frame.
	if math.Abs(a.Value()-0.3) > 1e-9 {
		t.Fatalf("Value = %v, want 0.3", a.Value())
	}
}

func TestCancelIdempotent(t *testing.T) {
	c := simclock.New()
	ends := 0
	a := mustAnim(t, c, Config{
		Duration: 50 * time.Millisecond,
		OnEnd:    func(bool) { ends++ },
	})
	a.Cancel() // idle: no-op
	if ends != 0 {
		t.Fatal("Cancel on idle animation fired OnEnd")
	}
	if err := a.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	a.Cancel()
	a.Cancel()
	if ends != 1 {
		t.Fatalf("OnEnd fired %d times, want 1", ends)
	}
}

func TestDoubleStartFails(t *testing.T) {
	c := simclock.New()
	a := mustAnim(t, c, Config{Duration: 50 * time.Millisecond})
	if err := a.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := a.Start(); err == nil {
		t.Fatal("second Start succeeded")
	}
}

// TestReverseRetractsValue models the notification retract: run the
// slide-down partway, reverse, and check the value returns to zero without
// ever exceeding the peak at reversal time.
func TestReverseRetractsValue(t *testing.T) {
	c := simclock.New()
	var log frameLog
	a := mustAnim(t, c, Config{
		Duration:      360 * time.Millisecond,
		FrameInterval: 10 * time.Millisecond,
		Interpolator:  FastOutSlowIn(),
		OnFrame:       log.observe,
	})
	if err := a.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := c.RunUntil(120 * time.Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	peakAtReversal := a.Value()
	if peakAtReversal <= 0 || peakAtReversal >= 1 {
		t.Fatalf("mid-animation value = %v, want in (0,1)", peakAtReversal)
	}
	if err := a.ReverseNow(); err != nil {
		t.Fatalf("ReverseNow: %v", err)
	}
	if a.State() != StateReversing {
		t.Fatalf("State = %v, want reversing", a.State())
	}
	if err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.State() != StateFinished {
		t.Fatalf("State = %v, want finished after reverse", a.State())
	}
	if a.Value() != 0 {
		t.Fatalf("Value = %v, want 0 after retract", a.Value())
	}
	if log.peak > peakAtReversal+1e-9 {
		t.Fatalf("peak %v grew past reversal value %v", log.peak, peakAtReversal)
	}
}

// TestReverseBeforeFirstFrame is the attack's Λ1 case: the overlay is
// removed before any frame rendered, so reversing finishes instantly with
// nothing ever shown.
func TestReverseBeforeFirstFrame(t *testing.T) {
	c := simclock.New()
	var log frameLog
	a := mustAnim(t, c, Config{
		Duration:      360 * time.Millisecond,
		FrameInterval: 10 * time.Millisecond,
		Interpolator:  FastOutSlowIn(),
		OnFrame:       log.observe,
	})
	if err := a.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := c.RunUntil(5 * time.Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if err := a.ReverseNow(); err != nil {
		t.Fatalf("ReverseNow: %v", err)
	}
	if err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if log.peak != 0 {
		t.Fatalf("peak = %v, want 0 (nothing rendered)", log.peak)
	}
	if log.frames != 1 {
		// A single zero-render happens as the reverse completes.
		t.Fatalf("frames = %d, want 1", log.frames)
	}
}

func TestReverseIdleIsNoOpWhenValueZero(t *testing.T) {
	c := simclock.New()
	a := mustAnim(t, c, Config{Duration: 100 * time.Millisecond})
	if err := a.ReverseNow(); err != nil {
		t.Fatalf("ReverseNow on idle: %v", err)
	}
	if a.State() != StateFinished {
		t.Fatalf("State = %v, want finished", a.State())
	}
}

func TestReverseTwiceIsNoOp(t *testing.T) {
	c := simclock.New()
	a := mustAnim(t, c, Config{Duration: 100 * time.Millisecond, FrameInterval: 10 * time.Millisecond})
	if err := a.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := c.RunUntil(50 * time.Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if err := a.ReverseNow(); err != nil {
		t.Fatalf("ReverseNow: %v", err)
	}
	if err := a.ReverseNow(); err != nil {
		t.Fatalf("second ReverseNow: %v", err)
	}
	if err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.Value() != 0 {
		t.Fatalf("Value = %v, want 0", a.Value())
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := simclock.New()
	var log frameLog
	a := mustAnim(t, c, Config{Duration: 30 * time.Millisecond, OnFrame: log.observe})
	if err := a.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Default 10ms frames, linear: 3 frames.
	if log.frames != 3 {
		t.Fatalf("frames = %d, want 3", log.frames)
	}
}

func TestStateString(t *testing.T) {
	tests := []struct {
		s    State
		want string
	}{
		{StateIdle, "idle"},
		{StateRunning, "running"},
		{StateReversing, "reversing"},
		{StateFinished, "finished"},
		{StateCanceled, "canceled"},
		{State(99), "State(99)"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("State(%d).String() = %q, want %q", tt.s, got, tt.want)
		}
	}
}

// TestSlowInSuppressionWindow quantifies the attack window: with the real
// 360 ms FastOutSlowIn animation and a 72-px view, no pixel renders before
// ~30 ms, so a removal within that window leaves the alert entirely
// invisible.
func TestSlowInSuppressionWindow(t *testing.T) {
	c := simclock.New()
	firstVisible := time.Duration(-1)
	a := mustAnim(t, c, Config{
		Duration:      360 * time.Millisecond,
		FrameInterval: 10 * time.Millisecond,
		Interpolator:  FastOutSlowIn(),
		OnFrame: func(v float64) {
			if firstVisible < 0 && VisiblePixels(72, v) > 0 {
				firstVisible = c.Now()
			}
		},
	})
	if err := a.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if firstVisible <= 10*time.Millisecond {
		t.Fatalf("first visible pixel at %v; slow-in should hide the first frame", firstVisible)
	}
	if firstVisible > 100*time.Millisecond {
		t.Fatalf("first visible pixel at %v; curve too slow", firstVisible)
	}
}

// TestResetMatchesNew resets a reversing animation under a new
// configuration and checks that it then renders exactly the frames, at
// exactly the times, of an animation New builds from that configuration,
// and that its old frame never fires.
func TestResetMatchesNew(t *testing.T) {
	c := simclock.New()
	var old frameLog
	a := mustAnim(t, c, Config{Name: "slide", Duration: 300 * time.Millisecond, OnFrame: old.observe})
	if err := a.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := c.RunFor(95 * time.Millisecond); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if err := a.ReverseNow(); err != nil {
		t.Fatalf("ReverseNow: %v", err)
	}
	stale := old.frames
	type frame struct {
		at time.Duration
		v  float64
	}
	var got, want []frame
	cfg := func(out *[]frame) Config {
		return Config{Name: "slide", Duration: 120 * time.Millisecond, Interpolator: FastOutSlowIn(),
			OnFrame: func(v float64) { *out = append(*out, frame{c.Now(), v}) }}
	}
	if err := a.Reset(cfg(&got)); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if a.State() != StateIdle || a.Value() != 0 {
		t.Fatalf("after Reset: state %v, value %v; want idle at 0", a.State(), a.Value())
	}
	b := mustAnim(t, c, cfg(&want))
	for _, x := range []*Animation{a, b} {
		if err := x.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
	}
	if err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if old.frames != stale {
		t.Fatalf("the frame pending at Reset fired")
	}
	if len(got) != len(want) || a.State() != b.State() {
		t.Fatalf("reset animation rendered %d frames (%v), a new one %d (%v)", len(got), a.State(), len(want), b.State())
	}
	for i := range got {
		if got[i].v != want[i].v || got[i].at-want[i].at != 0 {
			t.Fatalf("frame %d: reset %+v, new %+v", i, got[i], want[i])
		}
	}
	if err := a.Reset(Config{}); err == nil {
		t.Fatal("Reset accepted a zero duration")
	}
}

// Package experiment is the evaluation harness: one runner per table and
// figure of the paper's Section VI and VII, producing the same rows and
// series the paper reports. Absolute numbers come from the calibrated
// simulation, so the reproduction target is the paper's *shape* — who
// wins, monotonicity in D, version orderings, crossovers — as recorded in
// EXPERIMENTS.md.
package experiment

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/binder"
	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/input"
	"repro/internal/sysserver"
)

// AttackerApp is the malicious package used across experiments.
const AttackerApp binder.ProcessID = "com.attacker.app"

// NumParticipants is the user-study size (30 in the paper).
const NumParticipants = 30

// assembleAttackStack builds a stack for a profile with the attacker's
// overlay permission granted (the victim "accidentally installed" the
// overlay app and granted it, per the threat model). Extra assembly
// options (fault plane, invariant monitor) pass through to Assemble.
func assembleAttackStack(p device.Profile, seed int64, opts ...sysserver.Option) (*sysserver.Stack, error) {
	st := new(sysserver.Stack)
	if err := resetAttackStack(st, p, seed, opts...); err != nil {
		return nil, err
	}
	return st, nil
}

// resetAttackStack is assembleAttackStack on a stack that may have run
// before.
func resetAttackStack(st *sysserver.Stack, p device.Profile, seed int64, opts ...sysserver.Option) error {
	if err := st.Reset(p, seed, opts...); err != nil {
		return fmt.Errorf("experiment: assemble stack: %w", err)
	}
	st.WM.GrantOverlayPermission(AttackerApp)
	return nil
}

func screenOf(p device.Profile) geom.Rect {
	return geom.RectWH(0, 0, float64(p.ScreenW), float64(p.ScreenH))
}

// errSink collects failures raised inside clock callbacks, which have
// nowhere to return an error; runners check it once the run completes.
// Only the first failure is kept.
type errSink struct{ err error }

func (s *errSink) set(err error) {
	if s.err == nil && err != nil {
		s.err = err
	}
}

// setf is set with a formatted error.
func (s *errSink) setf(format string, args ...any) {
	s.set(fmt.Errorf(format, args...))
}

// safeTrial runs one trial function, converting a panic inside it into an
// error so a single bad trial is skipped and counted instead of killing a
// whole sweep.
func safeTrial(label string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiment: %s: panic: %v", label, r)
		}
	}()
	return fn()
}

// driveKeystrokes schedules a typing session's gestures on the stack's
// window manager: DOWN at each keystroke's DownAt, UP at UpAt (the gesture
// is canceled automatically if its window disappears in between). Failures
// inside the scheduled callbacks land in sink.
func driveKeystrokes(st *sysserver.Stack, ks []input.Keystroke, sink *errSink) error {
	for _, k := range ks {
		k := k
		if _, err := st.Clock.At(k.DownAt, "user/down", func() {
			gid, _, ok := st.WM.BeginGesture(k.Point)
			if !ok {
				return
			}
			st.Clock.MustAfter(k.UpAt-k.DownAt, "user/up", func() {
				// EndGesture only fails for unknown ids, which cannot
				// happen for a gesture begun above.
				if _, err := st.WM.EndGesture(gid, k.Point); err != nil {
					sink.setf("experiment: end gesture: %w", err)
				}
			})
		}); err != nil {
			return fmt.Errorf("experiment: schedule keystroke: %w", err)
		}
	}
	return nil
}

// participantDevice assigns participant i their phone: the study pairs
// the 30 participants 1:1 with the Table I devices.
func participantDevice(i int) device.Profile {
	profiles := device.Seed().Profiles()
	return profiles[i%len(profiles)]
}

// seedDevice resolves a Table I phone by model name.
func seedDevice(model string) (device.Profile, error) {
	p, ok := device.Seed().ByModel(model)
	if !ok {
		return device.Profile{}, fmt.Errorf("experiment: unknown device model %q", model)
	}
	return p, nil
}

// boundOf is the device's calibrated Λ1 bound: the paper's Table-II
// value for seed profiles, the analytical Equation-(3) bound for
// synthetic ones (whose PaperUpperBoundD is zero).
func boundOf(p device.Profile) time.Duration {
	if p.PaperUpperBoundD > 0 {
		return p.PaperUpperBoundD
	}
	return p.ExpectedUpperBoundD()
}

// errNoKeystrokes guards empty sessions.
var errNoKeystrokes = errors.New("experiment: session has no keystrokes")

// sessionEnd reports one second past the last keystroke of a session.
func sessionEnd(ks []input.Keystroke) (time.Duration, error) {
	if len(ks) == 0 {
		return 0, errNoKeystrokes
	}
	return ks[len(ks)-1].UpAt + time.Second, nil
}

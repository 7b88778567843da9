// Package input models the human side of the paper's user studies: a
// stochastic typist with an inter-keystroke cadence, a dispatch-critical
// press window, and spatial touch scatter around key centers. Thirty
// Typist instances with per-participant parameter draws stand in for the
// paper's thirty recruited participants.
//
// Calibration note (documented in DESIGN.md): the "press window" is the
// portion of a tap during which removing the target window causes the
// dispatched event to be lost. It is calibrated to ≈14 ms so that the
// simulated touch-event capture rate reproduces the shape of the paper's
// Fig. 7 (≈61% at D = 50 ms rising to ≈93% at 200 ms). Touch scatter is
// calibrated to σ ≈ 17 px on a ~108 px key grid, which yields the sub-1%
// per-keystroke wrong-key rate implied by Table III.
package input

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/geom"
	"repro/internal/keyboard"
	"repro/internal/simrand"
)

// Typist is one simulated participant.
type Typist struct {
	rng *simrand.Source
	// InterKey is the delay between consecutive key presses (ms).
	InterKey simrand.Dist
	// Press is the dispatch-critical press window (ms).
	Press simrand.Dist
	// ScatterPx is the standard deviation of the touch point around the
	// intended key center, in pixels.
	ScatterPx float64
	// MisspellProb is the per-character probability that the participant
	// types a neighboring key by mistake, notices, backspaces and
	// retypes — the "misspelling by a user" the paper lists as an error
	// source. The corrected sequence is transparent to the attack if all
	// three extra presses are captured; a missed backspace leaves the
	// attacker with an over-long derivation.
	MisspellProb float64
}

// NewTypist draws a participant from the population distribution: cadence
// mean ~240–330 ms, press window mean ~11–17 ms, scatter σ ~14–20 px.
func NewTypist(rng *simrand.Source) (*Typist, error) {
	if rng == nil {
		return nil, errors.New("input: nil rng")
	}
	cadence := rng.TruncNormal(285, 30, 240, 330)
	press := rng.TruncNormal(14, 2, 11, 17)
	scatter := rng.TruncNormal(17, 2, 14, 20)
	misspell := rng.TruncNormal(0.004, 0.002, 0.001, 0.009)
	return &Typist{
		rng:          rng,
		InterKey:     simrand.Dist{Kind: simrand.DistNormal, Mean: cadence, Jitter: 60, Min: 120, Max: 600},
		Press:        simrand.Dist{Kind: simrand.DistNormal, Mean: press, Jitter: 6, Min: 4, Max: 40},
		ScatterPx:    scatter,
		MisspellProb: misspell,
	}, nil
}

// WithStream returns a copy of the typist whose planning randomness comes
// from rng; the participant's drawn parameters (cadence, press window,
// scatter, misspell rate) are kept. Journaled runners give every trial its
// own derived stream so that replaying a finished trial from the journal
// leaves the randomness of the remaining trials untouched.
func (t *Typist) WithStream(rng *simrand.Source) (*Typist, error) {
	if rng == nil {
		return nil, errors.New("input: nil rng")
	}
	c := *t
	c.rng = rng
	return &c, nil
}

// Scatter displaces an intended touch point by the typist's spatial error.
func (t *Typist) Scatter(p geom.Point) geom.Point {
	return geom.Pt(
		t.rng.Normal(p.X, t.ScatterPx),
		t.rng.Normal(p.Y, t.ScatterPx),
	)
}

// Keystroke is one scheduled tap of a typing session.
type Keystroke struct {
	// Press is the planned key (ground truth).
	Press keyboard.Press
	// Point is where the finger actually lands (scattered).
	Point geom.Point
	// DownAt and UpAt are the gesture's virtual times.
	DownAt, UpAt time.Duration
}

// PlanSession expands text into a timed, scattered keystroke sequence on
// kb, starting at start. The plan includes the sub-keyboard transition
// presses (shift, ?123, ABC) a real user performs, and — with the
// typist's misspell probability — occasional fat-finger/backspace/retype
// triplets.
func (t *Typist) PlanSession(kb *keyboard.Keyboard, text string, start time.Duration) ([]Keystroke, error) {
	presses, err := kb.PlanPresses(text)
	if err != nil {
		return nil, fmt.Errorf("input: plan session: %w", err)
	}
	now := start
	out := make([]Keystroke, 0, len(presses))
	appendPress := func(pr keyboard.Press) {
		now += t.InterKey.Sample(t.rng)
		down := now
		up := down + t.Press.Sample(t.rng)
		out = append(out, Keystroke{
			Press:  pr,
			Point:  t.Scatter(pr.Key.Center()),
			DownAt: down,
			UpAt:   up,
		})
	}
	for _, pr := range presses {
		if pr.Key.Kind == keyboard.KindChar && t.rng.Bool(t.MisspellProb) {
			if wrong, ok := kb.NeighborKey(pr.Board, pr.Key); ok {
				if bs, ok := kb.FindKey(pr.Board, "⌫"); ok {
					appendPress(keyboard.Press{Board: pr.Board, Key: wrong})
					appendPress(keyboard.Press{Board: pr.Board, Key: bs})
				}
			}
		}
		appendPress(pr)
	}
	return out, nil
}

// passwordCharset spans the paper's password alphabet: lower case, upper
// case, digits and special symbols living on all three sub-keyboards.
const passwordCharset = "abcdefghijklmnopqrstuvwxyz" +
	"ABCDEFGHIJKLMNOPQRSTUVWXYZ" +
	"0123456789" +
	"@#$%&-+()/*\"':;!?"

// RandomPassword draws a password of the given length that may contain
// lower and upper case letters, numbers and special symbols on different
// sub-keyboards (Section VI-C1).
func RandomPassword(rng *simrand.Source, length int) string {
	var sb strings.Builder
	sb.Grow(length)
	for i := 0; i < length; i++ {
		sb.WriteByte(passwordCharset[rng.Intn(len(passwordCharset))])
	}
	return sb.String()
}

// lowerCharset is the alphabet of the Fig. 7 capture-rate experiment's
// random strings (single-board text: no transitions needed).
const lowerCharset = "abcdefghijklmnopqrstuvwxyz"

// RandomString draws a random lower-case string of the given length for
// the touch-capture experiment.
func RandomString(rng *simrand.Source, length int) string {
	var sb strings.Builder
	sb.Grow(length)
	for i := 0; i < length; i++ {
		sb.WriteByte(lowerCharset[rng.Intn(len(lowerCharset))])
	}
	return sb.String()
}

// Participants builds n typists with independent per-participant streams
// derived from rng.
func Participants(rng *simrand.Source, n int) ([]*Typist, error) {
	if n <= 0 {
		return nil, fmt.Errorf("input: non-positive participant count %d", n)
	}
	out := make([]*Typist, 0, n)
	for i := 0; i < n; i++ {
		typist, err := NewTypist(rng.DeriveIndexed("participant", i))
		if err != nil {
			return nil, err
		}
		out = append(out, typist)
	}
	return out, nil
}
